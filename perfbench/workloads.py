"""The three run workloads: one solve per operation on a warmed handle.

Every workload lowers its program in set-up, computes the NumPy reference
from the same inputs, and makes one untimed warm-up call.  An operation is
one solve; its outputs are checked after the clock stops.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.api import Session
from repro.apps import gauss_seidel, pw_advection
from repro.runtime.distributed_executor import DistributedRunResult
from repro.runtime.mpi_runtime import CartesianDecomposition

from . import checks
from .lowering import (Lowering, ScratchDir, cold_and_warm, compile_metrics,
                       instrument, lower_all, lowering, traced_cold_and_warm)
from .tracing import OPERATION_LAYER, Tracer


@dataclass
class Round:
    """One round of operations: how many were attempted and failed, and
    per timed phase the seconds of each item in it."""

    attempted: int
    failed: int
    times: Dict[str, List[float]]


@dataclass
class Traced:
    """A traced run: per-layer metrics, the spans, and the operations it
    attempted and saw fail."""

    metrics: Dict[str, float]
    tracer: Tracer
    attempted: int
    failed: int


def peak_mb(action: Callable[[], object]) -> float:
    """``tracemalloc`` peak of ``action()`` in MB (NumPy reports its
    buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        action()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


class RunWorkload:
    """A program solved repeatedly on a warmed handle."""

    name = ""
    #: Flops and computed bytes of one solve (from the app's per-cell
    #: constants); set in ``__init__``.
    flops = 0
    computed_bytes = 0
    #: The warmed interpreter, for workloads that call one directly.
    interp = None

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.session = Session()

    # -- provided by each workload -------------------------------------------

    def lowerings(self) -> List[Lowering]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Inputs, reference, handle and warm-up call."""
        raise NotImplementedError

    def before_solve(self) -> None:
        """Untimed preparation of the next solve."""

    def solve(self):
        """The timed operation; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, result) -> int:
        """Raise on a wrong output; return 1 for an operation that shows the
        known fault, else 0."""
        raise NotImplementedError

    def reference(self):
        raise NotImplementedError

    # -- shared driver -------------------------------------------------------

    def setup(self) -> None:
        self.prepare()

    def round(self) -> Round:
        """One solve, then one cold lowering and warm reload of the
        workload's programs: compile samples spread over the whole run
        rather than bunched in one burst that a busy second can skew."""
        self.before_solve()
        start = time.perf_counter()
        result = self.solve()
        seconds = time.perf_counter() - start
        failed = self.check(result)
        timing = cold_and_warm(self.scratch, self.lowerings())
        return Round(1, failed, {"run_s": [seconds],
                                 "compile_s": timing.compile_times,
                                 "reload_s": timing.reload_times})

    def compile_pass(self) -> Dict[str, float]:
        """``tracemalloc`` peak of one cold lowering of the programs."""
        from repro.serve import ArtifactStore

        items = self.lowerings()
        with ScratchDir(self.scratch) as directory:
            session = Session(store=ArtifactStore(directory))
            return {"compile_peak_mb": peak_mb(lambda: lower_all(session,
                                                                 items))}

    def memory_pass(self) -> Dict[str, float]:
        holder = {}

        def one():
            holder["result"] = self.solve()

        self.before_solve()

        peak = peak_mb(one)
        self.check(holder["result"])
        return {"run_peak_mb": peak}

    def reference_seconds(self, repeats: int = 5) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.reference()
            times.append(time.perf_counter() - start)
        return median(times)

    # -- traced run ----------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters of the warmed interpreter."""
        return runner_figures(self.interp)

    def figures(self, result, before: Dict[str, float]) -> Dict[str, float]:
        """Layer figures of one solve: counters now minus ``before``."""
        after = self.counters()
        return {key: after[key] - before[key] for key in after}

    def traced(self, seconds: float) -> "Traced":
        """Solves for ``seconds``, alternately untraced and traced, so that
        the tracing overhead compares neighbours; per-solve medians of each
        layer's figures, then one traced compile pass."""
        tracer = Tracer()
        untraced, traced_times, per_op = [], [], []
        failed = 0
        for _ in _until(seconds):
            self.before_solve()
            start = time.perf_counter()
            result = self.solve()
            untraced.append(time.perf_counter() - start)
            failed += self.check(result)
            self.before_solve()
            before = self.counters()
            mark = len(tracer.spans)
            instrument(tracer)
            try:
                with tracer.span(self.name, OPERATION_LAYER):
                    start = time.perf_counter()
                    result = self.solve()
                    traced_times.append(time.perf_counter() - start)
            finally:
                tracer.close()
            failed += self.check(result)
            op = self.figures(result, before)
            op["interp.call_s"] = tracer.total("Interpreter.call", since=mark)
            per_op.append(op)
        with tracer.span("compile-pass", OPERATION_LAYER):
            compiled = traced_cold_and_warm(tracer, self.scratch,
                                            self.lowerings())
        metrics = {k: median([op[k] for op in per_op]) for k in per_op[0]}
        metrics.update(compile_metrics(tracer, compiled, self.lowerings()))
        metrics["trace.overhead_pct"] = 100.0 * (
            median(traced_times) / median(untraced) - 1.0)
        if self.interp is not None:
            stats = self.interp.kernels.stats
            metrics["codegen.compiled"] = stats["compiled"]
            metrics["codegen.unsupported"] = stats["unsupported"]
        return Traced(self.layer_metrics(metrics), tracer,
                      len(untraced) + len(per_op), failed)

    def layer_metrics(self, m: Dict[str, float]) -> Dict[str, float]:
        """Derived per-layer figures from per-solve medians."""
        reference_s = self.reference_seconds()
        kernel_s = m["kernel_s"]
        m["interp.dispatch_s"] = max(0.0, m.pop("interp.call_s") - kernel_s
                                     - m.get("dmp.halo_s", 0.0))
        m["apps.reference_s"] = reference_s
        m["kernel.vs_reference"] = kernel_s / reference_s
        m["kernel.gflops"] = self.flops / kernel_s / 1e9
        m["kernel.computed_gb_per_s"] = self.computed_bytes / kernel_s / 1e9
        return m


def _until(seconds: float):
    """Yield until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    yield 0
    while time.perf_counter() < deadline:
        yield 0


def runner_figures(runner) -> Dict[str, float]:
    """The layer figures that whatever ran publishes: an ``Interpreter``'s
    counters (its device's since the last ``reset_statistics``), or one
    ``DistributedRunResult``."""
    if isinstance(runner, DistributedRunResult):
        ranks = runner.rank_stats
        kernel_s = sum(rank.kernel_seconds for rank in ranks)
        return {
            "kernel_s": kernel_s,
            "dmp.messages": runner.messages,
            "dmp.bytes": runner.bytes,
            "dmp.halo_s": sum(rank.halo_seconds for rank in ranks),
            "dmp.kernel_s": kernel_s,
            "dmp.orchestration_s": (runner.seconds
                                    - max(rank.total_seconds for rank in ranks)),
        }
    stats = runner.stats
    figures = {
        "kernel_s": sum(entry["seconds"] for entry
                        in runner.kernels.stats["per_kernel"].values()),
        "interp.vectorized_sweeps": stats["vectorized_sweeps"],
        "interp.vectorize_fallbacks": stats["vectorize_fallbacks"],
        "interp.parallel_tiles": stats["parallel_tiles"],
        "interp.parallel_fallbacks": stats["parallel_fallbacks"],
    }
    if runner.gpu is not None:
        device = runner.gpu.summary()
        figures.update({
            "gpu.launches": device["launches"],
            "gpu.launch_s": stats["gpu_seconds"],
            "gpu.transfer_s": stats["transfer_seconds"],
            "gpu.h2d_bytes": device["h2d_bytes"],
            "gpu.d2h_bytes": device["d2h_bytes"],
            "gpu.launch_fallbacks": stats["gpu_launch_fallbacks"],
        })
    return figures


class PwCpu(RunWorkload):
    """PW advection, cpu backend lowered to scf, vectorized, one thread."""

    name = "pw-cpu"
    entry = "pw_advection"

    def __init__(self, seed: int, scratch: Path, n: int = 64):
        super().__init__(seed, scratch)
        self.n = n
        self.source = pw_advection.generate_source(n)
        interior = (n - 2) ** 3
        self.flops = pw_advection.FLOPS_PER_CELL * interior
        self.computed_bytes = pw_advection.BYTES_PER_CELL * interior

    def lowerings(self):
        return [lowering(self.name, self.source, "cpu", lower_to_scf=True)]

    def prepare(self):
        fields = pw_advection.initial_fields(self.n, seed=self.seed)
        self.inputs = fields[:3]
        self.outputs = fields[3:]
        self.want = pw_advection.reference(*self.inputs)
        self.compiled = lower_all(self.session, self.lowerings())[0][0].vectorize(
            threads=1)
        self.interp = self.compiled.interpreter()
        self.check(self.solve())

    def solve(self):
        for out in self.outputs:
            out.fill(0.0)
        self.interp.call(self.entry, *self.inputs, *self.outputs)
        return self.outputs

    def check(self, outputs) -> int:
        for name, got, want in zip(("su", "sv", "sw"), outputs, self.want):
            checks.check_equal(f"pw-cpu {name}", got, want)
        return 0

    def reference(self):
        return pw_advection.reference(*self.inputs)


class GsGpu(RunWorkload):
    """Gauss-Seidel with many sweeps in the source, gpu backend, optimised
    data strategy, lowered to scf, vectorized."""

    name = "gs-gpu"
    entry = "gauss_seidel"

    def __init__(self, seed: int, scratch: Path, n: int = 64, sweeps: int = 30):
        super().__init__(seed, scratch)
        self.n = n
        self.sweeps = sweeps
        self.source = gauss_seidel.generate_source(n, niters=sweeps)
        interior = (n - 2) ** 3 * sweeps
        self.flops = gauss_seidel.FLOPS_PER_CELL * interior
        self.computed_bytes = gauss_seidel.BYTES_PER_CELL * interior

    def lowerings(self):
        return [lowering(self.name, self.source, "gpu", lower_to_scf=True,
                         data_strategy="optimised")]

    def prepare(self):
        self.initial = gauss_seidel.initial_condition(self.n, seed=self.seed)
        self.want = gauss_seidel.reference_jacobi(self.initial, self.sweeps)
        self.compiled = lower_all(self.session, self.lowerings())[0][0].vectorize(
            threads=1)
        self.interp = self.compiled.interpreter()
        self.field = np.empty_like(self.initial, order="F")
        self.before_solve()
        self.check(self.solve())

    def before_solve(self):
        # The device's transfer and launch records then hold one solve's.
        self.interp.gpu.reset_statistics()

    def solve(self):
        self.field[...] = self.initial
        self.interp.call(self.entry, self.field)
        return self.field, list(self.interp.gpu.transfers)

    def check(self, result) -> int:
        field, transfers = result
        checks.check_equal("gs-gpu field", field, self.want)
        field_bytes = self.n ** 3 * 8
        for direction in ("h2d", "d2h"):
            moved = sum(t.nbytes for t in transfers if t.direction == direction)
            checks.check_count(f"gs-gpu {direction} bytes per solve", moved,
                               field_bytes)
        return 0

    def reference(self):
        return gauss_seidel.reference_jacobi(self.initial, self.sweeps)


class GsDmp(RunWorkload):
    """Gauss-Seidel on the dmp backend, grid (2, 1), many iterations.

    Every solve shows the known boundary fault (see README.md), so its
    input does not depend on the seed: the operation fails every time, on
    every seed, and is counted in ``failed``.
    """

    name = "gs-dmp"
    entry = "gauss_seidel"
    grid = (2, 1)
    #: The field is fixed, whatever ``--seed`` says.
    field_seed = 0

    def __init__(self, seed: int, scratch: Path, n: int = 64,
                 iterations: int = 16):
        super().__init__(seed, scratch)
        self.n = n
        self.iterations = iterations
        decomposition = CartesianDecomposition((n, n, n), self.grid, (0, 1))
        self.local_shapes = sorted({
            tuple(ub - lb + 2 for lb, ub in decomposition.local_bounds(rank))
            for rank in range(decomposition.num_ranks)
        })
        interior = (n - 2) ** 3 * iterations
        self.flops = gauss_seidel.FLOPS_PER_CELL * interior
        self.computed_bytes = gauss_seidel.BYTES_PER_CELL * interior

    def lowerings(self):
        return [
            lowering(f"{self.name} {shape}",
                     gauss_seidel.generate_source_shaped(shape, niters=1),
                     "dmp", grid=self.grid, lower_to_scf=True)
            for shape in self.local_shapes
        ]

    def prepare(self):
        self.initial = gauss_seidel.initial_condition(self.n,
                                                      seed=self.field_seed)
        self.want = gauss_seidel.reference_jacobi(self.initial,
                                                  self.iterations)
        compiled = lower_all(self.session, self.lowerings())[0][0]
        self.plan = compiled.distribute(
            source_builder=gauss_seidel.generate_source_shaped)
        self.check(self.solve())

    def solve(self):
        return self.plan.run(self.initial, iterations=self.iterations)

    def ghost_plane_bytes(self, result) -> int:
        local = result.rank_stats[0].local_shape
        return int(np.prod(local[1:])) * 8

    def check(self, result) -> int:
        messages = 2 * self.iterations
        checks.check_count("gs-dmp halo messages", result.messages, messages)
        checks.check_count("gs-dmp halo bytes", result.bytes,
                           messages * self.ghost_plane_bytes(result))
        exact = checks.check_distributed("gs-dmp field", result.field,
                                         self.want, margin=self.iterations)
        return 0 if exact else 1

    def reference(self):
        return gauss_seidel.reference_jacobi(self.initial, self.iterations)

    def counters(self):
        return {}

    def figures(self, run, before):
        return runner_figures(run)
