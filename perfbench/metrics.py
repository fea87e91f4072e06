"""Every metric the benchmark prints: name, unit and better direction.

``BENCHMARK.json`` at the repository root lists the same names and units
(a test keeps the two in step).
"""

from __future__ import annotations

#: Printed with ``--trace 0``, on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("run_peak_mb", "MB", "lower"),
    ("compile_s", "s", "lower"),
    ("reload_s", "s", "lower"),
    ("compile_peak_mb", "MB", "lower"),
)

#: Printed with ``--trace 1``, on every workload; a layer a workload does
#: not use reads 0 there.
PER_LAYER = (
    ("frontend.parse_s", "s", "lower"),
    ("frontend.fir_gen_s", "s", "lower"),
    ("frontend.tokens_per_s", "1/s", "higher"),
    ("frontend.fir_ops", "count", "lower"),
    ("discovery_s", "s", "lower"),
    ("discovery.stencils", "count", "higher"),
    ("extraction_s", "s", "lower"),
    ("extraction.functions", "count", "higher"),
    ("transform_s", "s", "lower"),
    ("pass.convert-stencil-to-scf_s", "s", "lower"),
    ("pass.convert-scf-to-openmp_s", "s", "lower"),
    ("pass.convert-parallel-loops-to-gpu_s", "s", "lower"),
    ("pass.canonicalize_s", "s", "lower"),
    ("pass.cse_s", "s", "lower"),
    ("pass.reconcile-unrealized-casts_s", "s", "lower"),
    ("pipeline.ops_after", "count", "lower"),
    ("verify_s", "s", "lower"),
    ("ir.print_s", "s", "lower"),
    ("ir.parse_s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.bytes", "B", "lower"),
    ("store.disk_hits", "count", "higher"),
    ("session.hits", "count", "higher"),
    ("session.misses", "count", "lower"),
    ("kernel_s", "s", "lower"),
    ("kernel.vs_reference", "x", "lower"),
    ("kernel.gflops", "GFLOP/s", "higher"),
    ("kernel.computed_gb_per_s", "GB/s", "higher"),
    ("codegen.compiled", "count", "higher"),
    ("codegen.unsupported", "count", "lower"),
    ("interp.dispatch_s", "s", "lower"),
    ("interp.vectorized_sweeps", "count", "higher"),
    ("interp.vectorize_fallbacks", "count", "lower"),
    ("interp.parallel_tiles", "count", "higher"),
    ("interp.parallel_fallbacks", "count", "lower"),
    ("gpu.launches", "count", "lower"),
    ("gpu.launch_s", "s", "lower"),
    ("gpu.transfer_s", "s", "lower"),
    ("gpu.h2d_bytes", "B", "lower"),
    ("gpu.d2h_bytes", "B", "lower"),
    ("gpu.launch_fallbacks", "count", "lower"),
    ("dmp.messages", "count", "lower"),
    ("dmp.bytes", "B", "lower"),
    ("dmp.halo_s", "s", "lower"),
    ("dmp.kernel_s", "s", "lower"),
    ("dmp.orchestration_s", "s", "lower"),
    ("apps.reference_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)


def render(values, table, missing_as_zero: bool = False) -> dict:
    """``{"name": {"value": v, "unit": u}}`` for every metric of ``table``;
    a metric missing from ``values`` is an error unless
    ``missing_as_zero``."""
    return {
        name: {"value": float(values.get(name, 0.0) if missing_as_zero
                              else values[name]), "unit": unit}
        for name, unit, _ in table
    }
