"""The compile path, timed as a user meets it and traced layer by layer.

:func:`cold_and_warm` goes through ``Session`` and ``Program.lower`` over
an ``ArtifactStore``, as a user of the compiler does.  The traced run makes
the same calls after :func:`instrument` has wrapped the functions they reach
(the frontend, the passes, ``Backend.transform``, IR verify/print/parse and
the store), so the trace measures exactly the work of the timed run.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.frontend import tokenize
from repro.serve import ArtifactStore

from .checks import CheckFailed
from .tracing import Tracer

#: Pass-pipeline passes whose time the traced run reports by name.
REPORTED_PASSES = (
    "convert-stencil-to-scf",
    "convert-scf-to-openmp",
    "convert-parallel-loops-to-gpu",
    "canonicalize",
    "cse",
    "reconcile-unrealized-casts",
)


@dataclass(frozen=True)
class Lowering:
    """One source lowered for one backend with compile-time options."""

    label: str
    source: str
    backend: str
    options: Tuple[Tuple[str, object], ...] = ()

    def option_dict(self) -> Dict[str, object]:
        return dict(self.options)


def lowering(label: str, source: str, backend: str, **options) -> Lowering:
    return Lowering(label, source, backend, tuple(sorted(options.items())))


def lowering_key(item: Lowering):
    """What makes two lowerings the same compile (the label does not)."""
    return (item.source, item.backend, item.options)


def distinct(lowerings: Sequence[Lowering]) -> List[Lowering]:
    """The first of each set of equal lowerings, in order."""
    first: Dict[Tuple, Lowering] = {}
    for item in lowerings:
        first.setdefault(lowering_key(item), item)
    return list(first.values())


class ScratchDir:
    """A directory under the checkout's ``.bench_build`` that is removed on
    close; the benchmark writes nowhere else."""

    def __init__(self, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="store-", dir=root))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc) -> None:
        self.close()


def lower_all(session: Session, lowerings: Sequence[Lowering],
              execution_mode: str = "vectorize"):
    """``Program.lower`` every entry; returns the compiled handles and the
    seconds each lowering took."""
    handles, times = [], []
    for item in lowerings:
        start = time.perf_counter()
        handles.append(session.compile(item.source).lower(
            item.backend, execution_mode=execution_mode, **item.option_dict()))
        times.append(time.perf_counter() - start)
    return handles, times


def check_cache_counts(label: str, session: Session, *, misses: int,
                       disk_hits: int) -> Dict[str, int]:
    stats = session.cache_stats
    if stats["misses"] != misses or stats.get("disk_hits", 0) != disk_hits:
        raise CheckFailed(
            f"{label}: session cache stats {stats}, want {misses} backend "
            f"lowers and {disk_hits} disk hits"
        )
    return stats


def sum_of_medians(samples: Sequence[Sequence[float]]) -> float:
    """``samples[r][i]`` is item ``i``'s time in repeat ``r``: the sum over
    items of each item's median time.  A stall that hits a few items in one
    repeat is dropped, where the median of per-repeat sums would keep it."""
    return float(sum(statistics.median(times) for times in zip(*samples)))


@dataclass
class ColdWarm:
    """One cold lowering pass and its warm reload: per-lowering seconds, the
    handles, both sessions' cache counters and the store's size."""

    compile_times: List[float]
    reload_times: List[float]
    cold: list
    warm: list
    cold_stats: Dict[str, int] = field(default_factory=dict)
    warm_stats: Dict[str, int] = field(default_factory=dict)
    store_bytes: int = 0


def cold_and_warm(store_root: Path, lowerings: Sequence[Lowering]) -> ColdWarm:
    """Lower everything in a fresh ``Session`` over a fresh store (every
    lowering a backend lower plus a store write) and again in a second fresh
    ``Session`` over the same store (every lowering a disk hit).

    Each reload follows its own cold lowering at once, so that a cold sample
    and its reload see the machine in the same state.
    """
    with ScratchDir(store_root) as directory:
        cold_session = Session(store=ArtifactStore(directory))
        warm_session = Session(store=ArtifactStore(directory))
        gc.collect()
        cold, compile_times = [], []
        warm, reload_times = [], []
        for item in lowerings:
            handles, times = lower_all(cold_session, [item])
            cold += handles
            compile_times += times
            handles, times = lower_all(warm_session, [item])
            warm += handles
            reload_times += times
        store_bytes = warm_session.store.total_bytes()
    count = len(distinct(lowerings))
    cold_stats = check_cache_counts("cold lowering", cold_session,
                                    misses=count, disk_hits=0)
    warm_stats = check_cache_counts("reload", warm_session, misses=0,
                                    disk_hits=count)
    return ColdWarm(compile_times, reload_times, cold, warm, cold_stats,
                    warm_stats, store_bytes)


# ---------------------------------------------------------------------------
# The traced compile path
# ---------------------------------------------------------------------------


def instrument(tracer: Tracer, counts: Optional[Dict[str, int]] = None
               ) -> None:
    """Wrap the calls the program makes internally during lowering, reload
    and execution (``Tracer.close`` undoes it); adds the size of each
    generated FIR module to ``counts["frontend.fir_ops"]``."""
    import repro.frontend as frontend
    from repro.api import backends
    from repro.api.distributed import DistributedProgram
    from repro.api.program import CompiledProgram
    from repro.ir.operation import Operation
    from repro.runtime.interpreter import Interpreter
    from repro.serve import store as store_module
    from repro.transforms.stencil_discovery import StencilDiscoveryPass
    from repro.transforms.stencil_extraction import ExtractStencilsPass

    counts = {} if counts is None else counts

    def count_fir_ops(module) -> None:
        counts["frontend.fir_ops"] = (counts.get("frontend.fir_ops", 0)
                                      + sum(1 for _ in module.walk()))

    tracer.wrap(Session, "lower", "Session.lower", "api.session")
    tracer.wrap(backends.Backend, "lower", "Backend.lower", "api.backends")
    tracer.wrap(frontend, "parse_source", "parse_source", "frontend.parse")
    tracer.wrap(frontend, "generate_fir", "generate_fir", "frontend.fir_gen",
                on_result=count_fir_ops)
    tracer.wrap(StencilDiscoveryPass, "apply", "StencilDiscoveryPass.apply",
                "transforms.stencil_discovery")
    tracer.wrap(ExtractStencilsPass, "apply", "ExtractStencilsPass.apply",
                "transforms.stencil_extraction")
    for backend in (backends.Backend, backends.GpuBackend,
                    backends.DmpBackend):
        tracer.wrap(backend, "transform", "Backend.transform",
                    "transforms.pipeline")
    tracer.wrap(Operation, "verify", "Operation.verify", "ir.verify")
    tracer.wrap(store_module, "print_module", "print_module", "ir.print")
    tracer.wrap(store_module, "parse_module", "parse_module", "ir.parse")
    tracer.wrap(ArtifactStore, "save", "ArtifactStore.save", "serve.store")
    tracer.wrap(ArtifactStore, "load", "ArtifactStore.load", "serve.store")
    tracer.wrap(CompiledProgram, "interpreter", "CompiledProgram.interpreter",
                "api.program")
    tracer.wrap(Interpreter, "call", "Interpreter.call", "runtime.interpreter")
    tracer.wrap(DistributedProgram, "run", "DistributedProgram.run",
                "api.distributed")


def module_ops(artifact) -> int:
    total = sum(1 for _ in artifact.fir_module.walk())
    if artifact.stencil_module is not None:
        total += sum(1 for _ in artifact.stencil_module.walk())
    return total


@dataclass
class TracedCompile:
    """One traced :func:`cold_and_warm`: its result, the FIR op counts the
    wrappers took, and where its spans start in the tracer."""

    timing: ColdWarm
    counts: Dict[str, int]
    mark: int


def traced_cold_and_warm(tracer: Tracer, store_root: Path,
                         lowerings: Sequence[Lowering]) -> TracedCompile:
    """:func:`cold_and_warm` with every layer it reaches wrapped in spans."""
    counts: Dict[str, int] = {}
    mark = len(tracer.spans)
    instrument(tracer, counts)
    try:
        timing = cold_and_warm(store_root, lowerings)
    finally:
        tracer.close()
    return TracedCompile(timing, counts, mark)


def compile_metrics(tracer: Tracer, compiled: TracedCompile,
                    lowerings: Sequence[Lowering]) -> Dict[str, float]:
    """The per-layer figures of one traced :func:`cold_and_warm`."""
    timing = compiled.timing
    # Each distinct lowering once (repeated lowerings are session hits that
    # return the same artifact).
    artifacts = list({id(h.artifact): h.artifact for h in timing.cold}.values())
    tokens = sum(len(tokenize(item.source)) for item in distinct(lowerings))

    def total(name):
        return tracer.total(name, since=compiled.mark)

    parse_s = total("parse_source")
    metrics = {
        "frontend.parse_s": parse_s,
        "frontend.fir_gen_s": total("generate_fir"),
        "frontend.tokens_per_s": tokens / parse_s if parse_s else 0.0,
        "frontend.fir_ops": compiled.counts.get("frontend.fir_ops", 0),
        "discovery_s": total("StencilDiscoveryPass.apply"),
        "discovery.stencils": sum(sum(a.discovered_stencils.values())
                                  for a in artifacts),
        "extraction_s": total("ExtractStencilsPass.apply"),
        "extraction.functions": sum(len(a.extracted_functions)
                                    for a in artifacts),
        "transform_s": total("Backend.transform"),
        "pipeline.ops_after": sum(module_ops(a) for a in artifacts),
        "verify_s": total("Operation.verify"),
        "ir.print_s": total("print_module"),
        "ir.parse_s": total("parse_module"),
        "store.save_s": total("ArtifactStore.save"),
        "store.load_s": total("ArtifactStore.load"),
        "store.bytes": timing.store_bytes,
        "store.disk_hits": timing.warm_stats["disk_hits"],
        "session.misses": timing.cold_stats["misses"],
        "session.hits": (timing.warm_stats["hits"]
                         + timing.warm_stats["disk_hits"]),
    }
    for name in REPORTED_PASSES:
        metrics[f"pass.{name}_s"] = sum(
            stat.seconds for a in artifacts for stat in a.pass_statistics
            if stat.name == name)
    return metrics
