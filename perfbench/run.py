"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pw-cpu --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics, measured by worker processes
(``--worker``) run one after another.  ``--trace 1`` makes the separate
traced run in this process, prints the per-layer table and the per-layer
metrics, and writes the spans as Chrome Trace Event JSON plus a summary that
``perfbench/compare.py`` reads.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# Library threading is pinned to one thread before NumPy is imported (the
# libraries read these once, at load), so the NumPy references and the
# emitted kernels are not silently threaded.
PINNED_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in PINNED_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"

WORKLOADS = ("pw-cpu", "gs-gpu", "gs-dmp", "compile-corpus")
#: A timed run is split over this many worker processes, one after another,
#: each doing its own set-up and an equal share of the seconds.  Speed
#: differs from process to process on a shared machine (allocation, layout,
#: neighbours); pooling several processes per run keeps one unlucky process
#: from moving the run's figures, and each worker's set-up is one
#: ``setup_s`` sample.  The corpus's set-up and rounds take seconds, so it
#: runs in one worker, where a second worker's set-up would cost it two of
#: its four or so rounds.
WORKERS = {"pw-cpu": 5, "gs-gpu": 5, "gs-dmp": 5, "compile-corpus": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("rounds", "rounds+peaks"),
                        help="run as one worker process of a timed run and "
                             "print its raw samples")
    parser.add_argument("--trace-dir", type=Path,
                        default=ROOT / ".bench_build" / "perfbench",
                        help="where the traced run writes its files")
    return parser.parse_args(argv)


def machine_record() -> str:
    import numpy

    pins = " ".join(f"{name}={os.environ.get(name)}"
                    for name in PINNED_THREAD_VARIABLES)
    return (f"machine: nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"{pins}")


def make_workload(name: str, seed: int, scratch: Path):
    from perfbench.corpus import CompileCorpus
    from perfbench.workloads import GsDmp, GsGpu, PwCpu

    classes = {"pw-cpu": PwCpu, "gs-gpu": GsGpu, "gs-dmp": GsDmp,
               "compile-corpus": CompileCorpus}
    return classes[name](seed, scratch)


class WorkerFailed(RuntimeError):
    def __init__(self, code: int, stderr: str):
        super().__init__(stderr.strip())
        self.code = code


def run_workers(args) -> list:
    """Run the timed workers one after another; their raw samples."""
    count = WORKERS[args.workload]
    results = []
    for index in range(count):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / count),
                   "--worker", "rounds+peaks" if index == 0 else "rounds"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=170)
        if done.returncode != 0:
            raise WorkerFailed(done.returncode, done.stderr)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def worker(args, workload, setup_s: float) -> dict:
    """One worker's share of a timed run: set-up time, every round's
    per-item seconds, and (for the first worker) the memory peaks."""
    from perfbench.workloads import _until

    rounds = [workload.round() for _ in _until(args.seconds)]
    result = {
        "setup_s": setup_s,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "times": {key: [r.times[key] for r in rounds]
                  for key in rounds[0].times},
    }
    if args.worker == "rounds+peaks":
        result["peaks"] = {**workload.compile_pass(), **workload.memory_pass()}
    return result


def end_to_end(args):
    """Pool the workers' samples into the end-to-end metrics."""
    from perfbench.lowering import sum_of_medians
    from perfbench.workloads import median

    results = run_workers(args)
    values = {"setup_s": median([r["setup_s"] for r in results])}
    for key in results[0]["times"]:
        values[key] = sum_of_medians(
            [items for r in results for items in r["times"][key]])
    values.update(results[0]["peaks"])
    rounds = sum(len(r["times"]["run_s"]) for r in results)
    print(f"rounds: {rounds} over {len(results)} workers; set-up samples: "
          + " ".join(f"{r['setup_s']:.3f}" for r in results))
    return (values, sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results))


def traced(args, workload):
    from perfbench.tracing import format_layer_table

    run = workload.traced(args.seconds)
    values, tracer = run.metrics, run.tracer
    values["trace.spans"] = len(tracer.spans)
    table = tracer.layer_table()
    wall = tracer.operation_seconds()
    for line in format_layer_table(table, wall):
        print(line)
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    stem = args.trace_dir / f"{args.workload}-seed{args.seed}"
    tracer.write_chrome_trace(f"{stem}.trace.json")
    summary = {"workload": args.workload, "seed": args.seed, "wall_s": wall,
               "layers": table, "metrics": values}
    with open(f"{stem}.summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print(f"trace: {stem}.trace.json  summary: {stem}.summary.json")
    return values, run.attempted, run.failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the compiler's sources are not in {SOURCE}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench import checks, metrics
    from perfbench.lowering import ScratchDir

    if not args.trace and not args.worker:
        print(machine_record())
        try:
            values, attempted, failed = end_to_end(args)
        except WorkerFailed as failure:
            print(f"error: a worker process failed: {failure}",
                  file=sys.stderr)
            if failure.code == 1:
                print(json.dumps({"correct": False, "attempted": 1,
                                  "failed": 1, "metrics": {}}))
            return failure.code
        print(json.dumps({"correct": True, "attempted": attempted,
                          "failed": failed,
                          "metrics": metrics.render(values,
                                                    metrics.END_TO_END)}))
        return 0

    scratch = ScratchDir(ROOT / ".bench_build" / "perfbench" / "scratch")
    try:
        workload = make_workload(args.workload, args.seed, scratch.path)
        workload.setup()
        setup_s = time.perf_counter() - PROCESS_START
        # What set-up built stays alive for the whole run; keeping it out of
        # the collector's scans keeps collections from slowing the timed
        # rounds as that state grows.
        gc.freeze()
        if args.worker:
            print(json.dumps(worker(args, workload, setup_s)))
            return 0
        print(machine_record())
        values, attempted, failed = traced(args, workload)
    except checks.UnexpectedFault as fault:
        print(f"error: {fault}", file=sys.stderr)
        return 3
    except checks.CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        scratch.close()
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics.render(values, metrics.PER_LAYER,
                                                missing_as_zero=True)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
