"""The compile-corpus workload: many programs lowered for every backend.

The corpus is both apps plus generator kernels from
``repro.fuzz.generator.generate_spec``, taken in generator-seed order from
seed 0: ``GENERAL_COMPARABLE`` kernels whose written arrays are never read,
``GENERAL_OTHER`` kernels that read what they write, and ``STAR``
star-stencil ("distributed" style) kernels, which are lowered for dmp too.
The programs are the same for every ``--seed``; the seed draws every input
array and scalar.  Programs drawn per seed made the corpus's cost a property
of the seed: over 8 seeds the cold lowering of the drawn kernels took
1.35-1.64 s and their execution 0.17-0.29 s (README.md).

Every dmp pair shows the known boundary fault (README.md) and is counted as
failed; its input does not depend on ``--seed``.

One operation is one (program, backend) pair.  A round lowers every pair
cold in a fresh ``Session`` over a fresh ``ArtifactStore``, reloads every
pair in a second fresh ``Session`` over the warm store, then executes every
cold artifact once at its small size.  Outputs are checked against the
oracles computed in set-up, and every reloaded artifact must compute the
same bits as its cold twin.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Session
from repro.apps import gauss_seidel, pw_advection
from repro.fuzz.generator import KernelSpec, generate_spec
from repro.runtime.mpi_runtime import CartesianDecomposition

from . import checks
from .lowering import (Lowering, ScratchDir, cold_and_warm, compile_metrics,
                       instrument, lower_all, lowering, sum_of_medians,
                       traced_cold_and_warm)
from .tracing import OPERATION_LAYER, Tracer
from .workloads import Round, Traced, median, peak_mb, runner_figures, _until

GENERAL_COMPARABLE = 12
GENERAL_OTHER = 22
STAR = 6
#: App sizes in the corpus: flang-only runs them on the scalar FIR
#: interpreter, where PW advection at n=16 takes 9 s.
PW_N = 6
GS_N = 8
GS_SWEEPS = 2
DMP_GRID = (2, 1)
#: Distributed solves of the Gauss-Seidel pair, and of each star kernel
#: (whose sweeps already exchange halos inside one call).
DMP_ITERATIONS = 2
STAR_ITERATIONS = 1
#: Threads the openmp artifacts run with.
OPENMP_THREADS = 2

#: Compile-time options of each backend: the scf pipeline wherever the
#: backend has one.
BACKEND_OPTIONS = {
    "flang-only": {},
    "cpu": {"lower_to_scf": True},
    "openmp": {"lower_to_scf": True},
    "gpu": {"lower_to_scf": True},
    "dmp": {"lower_to_scf": True, "grid": DMP_GRID},
}


@dataclass
class Pair:
    """One (program, backend) pair and how to run and check it."""

    label: str
    backend: str
    entry: str
    lowerings: List[Lowering]
    #: Fresh argument list for one call.
    make_args: Callable[[], List[object]]
    #: Names of the output arrays, in argument order.
    outputs: Tuple[str, ...]
    want: Dict[str, np.ndarray]
    #: dmp pairs: the global field, the source per local shape, iterations
    #: and the margin the boundary fault cannot cross.
    field: Optional[np.ndarray] = None
    source_builder: Optional[Callable] = None
    iterations: int = 1
    margin: int = 0


def _copies(arrays: Sequence[np.ndarray]) -> Callable[[], List[object]]:
    return lambda: [a.copy(order="F") for a in arrays]


def _local_shapes(global_shape: Sequence[int]) -> List[Tuple[int, ...]]:
    decomposition = CartesianDecomposition(tuple(global_shape), DMP_GRID,
                                           tuple(range(len(DMP_GRID))))
    return sorted({
        tuple(ub - lb + 2 for lb, ub in decomposition.local_bounds(rank))
        for rank in range(decomposition.num_ranks)
    }, key=lambda shape: tuple(-s for s in shape))


def corpus_specs(comparable: int = GENERAL_COMPARABLE,
                 other: int = GENERAL_OTHER, star: int = STAR
                 ) -> Tuple[List[KernelSpec], List[KernelSpec], List[KernelSpec]]:
    """The generator kernels of the corpus, in generator-seed order."""
    groups = {"comparable": [], "other": [], "star": []}
    wanted = {"comparable": comparable, "other": other, "star": star}
    generator_seed = 0
    while any(len(groups[k]) < wanted[k] for k in groups):
        spec = generate_spec(generator_seed)
        generator_seed += 1
        if spec.style == "distributed":
            kind = "star"
        else:
            kind = "comparable" if spec.flang_comparable else "other"
        if len(groups[kind]) < wanted[kind]:
            groups[kind].append(spec)
    return groups["comparable"], groups["other"], groups["star"]


def spec_inputs(spec: KernelSpec, seed: int
                ) -> Tuple[List[np.ndarray], float]:
    """Input arrays (in argument order) and scalar of ``spec`` for ``seed``:
    positive values, as the fuzz farm draws them."""
    arrays = [
        np.asfortranarray(np.random.default_rng([seed, spec.seed, index])
                          .uniform(0.5, 2.0, size=spec.extents))
        for index in range(len(spec.arrays))
    ]
    scalar = float(np.random.default_rng([seed, spec.seed, 997])
                   .uniform(0.5, 2.0))
    return arrays, scalar


def _run_calls(session: Session, source: str, backend: str, mode: str,
               entry: str, args: List[object], calls: int = 1) -> None:
    compiled = session.compile(source).lower(backend, execution_mode=mode)
    interp = compiled.interpreter()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(calls):
            interp.call(entry, *args)


class CompileCorpus:
    """The compile-corpus workload (see the module docstring)."""

    name = "compile-corpus"

    def __init__(self, seed: int, scratch: Path,
                 comparable: int = GENERAL_COMPARABLE,
                 other: int = GENERAL_OTHER, star: int = STAR):
        self.seed = seed
        self.scratch = scratch
        self.sizes = (comparable, other, star)

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        comparable, other, stars = corpus_specs(*self.sizes)
        oracle_session = Session()
        pairs: List[Pair] = self._app_pairs()
        for spec in comparable + other + stars:
            pairs += self._spec_pairs(spec, oracle_session)
        self.pairs = pairs
        self.lowerings = [item for pair in pairs for item in pair.lowerings]
        # Warm-up: lazy imports, first-call costs and kernel codegen are paid
        # here, not in the first timed round.
        handles, _ = lower_all(Session(), self.lowerings)
        _, _, runners = self.exec_pass(self._handles(handles))
        self.codegen = {"codegen.compiled": 0, "codegen.unsupported": 0}
        for runner in runners:
            kernels = getattr(runner, "kernels", None)
            if kernels is not None:
                self.codegen["codegen.compiled"] += kernels.stats["compiled"]
                self.codegen["codegen.unsupported"] += kernels.stats["unsupported"]

    def _app_pairs(self) -> List[Pair]:
        pairs = []
        pw_source = pw_advection.generate_source(PW_N)
        fields = pw_advection.initial_fields(PW_N, seed=self.seed)
        pw_want = dict(zip(("su", "sv", "sw"),
                           pw_advection.reference(*fields[:3])))
        for backend in ("flang-only", "cpu", "openmp", "gpu"):
            pairs.append(Pair(
                f"pw_advection/{backend}", backend, "pw_advection",
                [lowering("pw_advection", pw_source, backend,
                          **BACKEND_OPTIONS[backend])],
                _copies(fields), ("u", "v", "w", "su", "sv", "sw"), pw_want))
        gs_source = gauss_seidel.generate_source(GS_N, niters=GS_SWEEPS)
        initial = gauss_seidel.initial_condition(GS_N, seed=self.seed)
        for backend in ("flang-only", "cpu", "openmp", "gpu"):
            reference = (gauss_seidel.reference_gauss_seidel
                         if backend == "flang-only"
                         else gauss_seidel.reference_jacobi)
            pairs.append(Pair(
                f"gauss_seidel/{backend}", backend, "gauss_seidel",
                [lowering("gauss_seidel", gs_source, backend,
                          **BACKEND_OPTIONS[backend])],
                _copies([initial]), ("u",),
                {"u": reference(initial, GS_SWEEPS)}))
        shapes = _local_shapes(initial.shape)
        fixed = gauss_seidel.initial_condition(GS_N, seed=0)
        pairs.append(Pair(
            "gauss_seidel/dmp", "dmp", "gauss_seidel",
            [lowering(f"gauss_seidel {shape}",
                      gauss_seidel.generate_source_shaped(shape, niters=1),
                      "dmp", **BACKEND_OPTIONS["dmp"]) for shape in shapes],
            _copies([fixed]), ("u",),
            {"u": gauss_seidel.reference_jacobi(fixed, DMP_ITERATIONS)},
            field=fixed, source_builder=gauss_seidel.generate_source_shaped,
            iterations=DMP_ITERATIONS, margin=DMP_ITERATIONS))
        return pairs

    def _spec_pairs(self, spec: KernelSpec, session: Session) -> List[Pair]:
        def outputs_of(backend: str, make_args, calls: int = 1
                       ) -> Dict[str, np.ndarray]:
            args = make_args()
            _run_calls(session, spec.render(), backend, "interpret",
                       spec.entry, args, calls)
            return dict(zip(spec.arrays, args))

        def args_for(seed: int):
            arrays, scalar = spec_inputs(spec, seed)
            tail = [scalar] if spec.has_scalar else []
            return lambda: [a.copy(order="F") for a in arrays] + tail

        make_args = args_for(self.seed)
        # The scalar interpreter over the stencil flow is the oracle; for a
        # kernel that never reads what it writes, plain FIR computes the
        # same bits, and both must agree.
        want = outputs_of("cpu", make_args)
        backends = ["cpu", "openmp", "gpu"]
        if spec.flang_comparable:
            flang = outputs_of("flang-only", make_args)
            for name in spec.arrays:
                checks.check_equal(f"{spec.entry} flang-only vs cpu oracle",
                                   flang[name], want[name])
            want = flang
            backends.insert(0, "flang-only")
        pairs = [
            Pair(f"{spec.entry}/{backend}", backend, spec.entry,
                 [lowering(spec.entry, spec.render(), backend,
                           **BACKEND_OPTIONS[backend])],
                 make_args, spec.arrays, want)
            for backend in backends
        ]
        if spec.style == "distributed":
            fixed_args = args_for(0)
            serial = outputs_of("cpu", fixed_args, calls=STAR_ITERATIONS)
            pairs.append(Pair(
                f"{spec.entry}/dmp", "dmp", spec.entry,
                [lowering(f"{spec.entry} {shape}", spec.render(shape=shape),
                          "dmp", **BACKEND_OPTIONS["dmp"])
                 for shape in _local_shapes(spec.extents)],
                fixed_args, spec.arrays, {"a": serial["a"]},
                field=fixed_args()[0],
                source_builder=lambda shape, spec=spec: spec.render(shape=shape),
                iterations=STAR_ITERATIONS,
                margin=STAR_ITERATIONS * spec.sweeps * spec.max_offset))
        return pairs

    # -- execution -----------------------------------------------------------

    def _handles(self, compiled: list) -> List[object]:
        """The first handle of each pair's lowerings."""
        handles, index = [], 0
        for pair in self.pairs:
            handles.append(compiled[index])
            index += len(pair.lowerings)
        return handles

    def execute(self, pair: Pair, handle) -> Tuple[Dict[str, np.ndarray], object]:
        """Run one artifact once; returns its outputs and the interpreter or
        distributed result that ran it."""
        with np.errstate(over="ignore", invalid="ignore"):
            if pair.backend == "dmp":
                plan = handle.distribute(source_builder=pair.source_builder,
                                         entry=pair.entry)
                result = plan.run(pair.field, iterations=pair.iterations)
                return {pair.outputs[0]: result.field}, result
            threads = OPENMP_THREADS if pair.backend == "openmp" else 1
            interp = handle.interpreter(threads=threads)
            args = pair.make_args()
            interp.call(pair.entry, *args)
        named = dict(zip(pair.outputs, args))
        return {name: named[name] for name in pair.want}, interp

    def check(self, pair: Pair, outputs: Dict[str, np.ndarray]) -> int:
        if pair.backend == "dmp":
            name = pair.outputs[0]
            exact = checks.check_distributed(pair.label, outputs[name],
                                             pair.want[name], pair.margin)
            return 0 if exact else 1
        for name, want in pair.want.items():
            checks.check_equal(f"{pair.label} {name}", outputs[name], want)
        return 0

    def exec_pass(self, handles):
        """Execute every pair once; per-pair seconds, outputs and runners."""
        times, outputs, runners = [], [], []
        gc.collect()
        for pair, handle in zip(self.pairs, handles):
            start = time.perf_counter()
            result, runner = self.execute(pair, handle)
            times.append(time.perf_counter() - start)
            outputs.append(result)
            runners.append(runner)
        return times, outputs, runners

    def round(self) -> Round:
        timing = cold_and_warm(self.scratch, self.lowerings)
        run_times, outputs, _ = self.exec_pass(self._handles(timing.cold))
        self.last_handles = self._handles(timing.cold)
        failed = 0
        warm_handles = self._handles(timing.warm)
        for pair, got, warm in zip(self.pairs, outputs, warm_handles):
            failed += self.check(pair, got)
            again, _ = self.execute(pair, warm)
            for name, value in got.items():
                if again[name].tobytes() != value.tobytes():
                    raise checks.CheckFailed(
                        f"{pair.label} {name}: the reloaded artifact computes "
                        f"different bits from the cold one")
        return Round(len(self.pairs), failed, {
            "compile_s": timing.compile_times,
            "reload_s": timing.reload_times,
            "run_s": run_times,
        })

    # -- separate passes -----------------------------------------------------

    def compile_pass(self) -> Dict[str, float]:
        """Largest ``tracemalloc`` peak of one cold lowering of an app, the
        corpus's largest programs (tracing every pair's lowering would take
        six times a round)."""
        from repro.serve import ArtifactStore

        peaks = []
        with ScratchDir(self.scratch) as directory:
            for pair in self.pairs:
                if pair.entry not in ("pw_advection", "gauss_seidel"):
                    continue
                session = Session(store=ArtifactStore(directory))
                peaks.append(peak_mb(lambda: lower_all(session, pair.lowerings)))
        return {"compile_peak_mb": max(peaks)}

    def memory_pass(self) -> Dict[str, float]:
        """Largest ``tracemalloc`` peak of executing one artifact."""
        peaks = []
        for pair, handle in zip(self.pairs, self.last_handles):
            peaks.append(peak_mb(lambda: self.execute(pair, handle)))
        return {"run_peak_mb": max(peaks)}

    # -- traced run ----------------------------------------------------------

    def traced(self, seconds: float) -> Traced:
        """Rounds for ``seconds``, alternately untraced and traced, so that
        the tracing overhead compares neighbours; per-round medians of each
        layer's figures."""
        tracer = Tracer()
        untraced, rounds = [], []
        failed = 0
        for _ in _until(seconds):
            plain = self.round()
            untraced.append(plain)
            failed += plain.failed
            with tracer.span("round", OPERATION_LAYER):
                start = time.perf_counter()
                compiled = traced_cold_and_warm(tracer, self.scratch,
                                                self.lowerings)
                mark = len(tracer.spans)
                instrument(tracer)
                try:
                    _, outputs, runners = self.exec_pass(
                        self._handles(compiled.timing.cold))
                finally:
                    tracer.close()
                traced_s = time.perf_counter() - start
            failed += sum(self.check(pair, got)
                          for pair, got in zip(self.pairs, outputs))
            figures = compile_metrics(tracer, compiled, self.lowerings)
            figures.update(self._runtime_figures(runners))
            figures["interp.call_s"] = tracer.total("Interpreter.call",
                                                    since=mark)
            figures["traced_s"] = traced_s
            rounds.append(figures)
        untraced_s = sum(sum_of_medians([r.times[key] for r in untraced])
                         for key in untraced[0].times)
        metrics = {k: median([r[k] for r in rounds]) for k in rounds[0]}
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics.pop("traced_s") / untraced_s - 1.0)
        metrics["interp.dispatch_s"] = max(
            0.0, metrics.pop("interp.call_s") - metrics["kernel_s"]
            - metrics["dmp.halo_s"])
        metrics.update(self.codegen)
        metrics["apps.reference_s"] = self.reference_seconds()
        return Traced(metrics, tracer,
                      len(self.pairs) * (len(untraced) + len(rounds)), failed)

    @staticmethod
    def _runtime_figures(runners) -> Dict[str, float]:
        """Every runner's layer figures, summed."""
        figures: Dict[str, float] = dict.fromkeys(("dmp.halo_s", "kernel_s"),
                                                  0.0)
        for runner in runners:
            for key, value in runner_figures(runner).items():
                figures[key] = figures.get(key, 0.0) + value
        return figures

    def reference_seconds(self, repeats: int = 5) -> float:
        """The NumPy references of the two apps at the corpus size."""
        fields = pw_advection.initial_fields(PW_N, seed=self.seed)
        initial = gauss_seidel.initial_condition(GS_N, seed=self.seed)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            pw_advection.reference(*fields[:3])
            gauss_seidel.reference_jacobi(initial, GS_SWEEPS)
            times.append(time.perf_counter() - start)
        return median(times)
