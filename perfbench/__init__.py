"""Benchmark of the Fortran stencil compiler: four workloads, end-to-end
metrics, and a traced run that splits time by layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
