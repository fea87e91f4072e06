"""The benchmark's own tests: its checkers catch what they must, its corpus
draw is reproducible, and its metric names match ``BENCHMARK.json``.

The workloads run at small sizes here; the checks are the ones the timed
runs use.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, metrics
from perfbench.compare import compare
from perfbench.corpus import CompileCorpus, corpus_specs, spec_inputs
from perfbench.tracing import OPERATION_LAYER, Tracer
from perfbench.workloads import GsDmp, GsGpu, PwCpu
from repro.runtime.gpu_runtime import GPUTransfer

ROOT = Path(__file__).resolve().parents[2]


def one_ulp_up(array: np.ndarray, index) -> None:
    array[index] = np.nextafter(array[index], np.inf)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("scratch")


@pytest.fixture(scope="module")
def pw(scratch):
    workload = PwCpu(seed=3, scratch=scratch, n=8)
    workload.setup()
    return workload


@pytest.fixture
def gs_gpu(scratch):
    workload = GsGpu(seed=3, scratch=scratch, n=8, sweeps=3)
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def corpus(scratch):
    workload = CompileCorpus(seed=3, scratch=scratch, comparable=1, other=1,
                             star=1)
    workload.setup()
    return workload


def test_pw_cpu_one_ulp_in_one_cell_fails(pw):
    outputs = pw.solve()
    assert pw.check(outputs) == 0
    one_ulp_up(outputs[1], (3, 4, 2))
    with pytest.raises(checks.CheckFailed, match="sv: 1 cell"):
        pw.check(outputs)


def test_gs_gpu_one_ulp_in_one_cell_fails(gs_gpu):
    gs_gpu.before_solve()
    field, transfers = gs_gpu.solve()
    assert gs_gpu.check((field, transfers)) == 0
    one_ulp_up(field, (4, 4, 4))
    with pytest.raises(checks.CheckFailed, match="1 cell"):
        gs_gpu.check((field, transfers))


def test_gs_gpu_extra_pcie_copy_fails(gs_gpu):
    interp = gs_gpu.interp
    call = interp.call

    def call_with_extra_copy(*args):
        result = call(*args)
        interp.gpu.transfers.append(GPUTransfer("h2d", gs_gpu.n ** 3 * 8))
        return result

    interp.call = call_with_extra_copy
    gs_gpu.before_solve()
    with pytest.raises(checks.CheckFailed, match="h2d bytes per solve"):
        gs_gpu.check(gs_gpu.solve())


def test_gs_dmp_known_fault_is_counted_and_interior_corruption_stops(scratch):
    workload = GsDmp(seed=3, scratch=scratch, n=12, iterations=3)
    workload.setup()
    run = workload.solve()
    # 1 while the known boundary fault is present, 0 once it is fixed.
    assert workload.check(run) in (0, 1)
    run.field[6, 6, 6] += 1.0
    with pytest.raises(checks.UnexpectedFault, match="1 cell"):
        workload.check(run)


def test_gs_dmp_field_does_not_depend_on_seed(scratch):
    first, second = (GsDmp(seed=s, scratch=scratch, n=8, iterations=2)
                     for s in (1, 2))
    for workload in (first, second):
        workload.setup()
    assert first.initial.tobytes() == second.initial.tobytes()


def test_corpus_flipped_bit_in_one_output_fails(corpus):
    round_ = corpus.round()
    assert round_.attempted == len(corpus.pairs)
    index = next(i for i, pair in enumerate(corpus.pairs)
                 if pair.backend == "gpu")
    pair, handle = corpus.pairs[index], corpus.last_handles[index]
    outputs, _ = corpus.execute(pair, handle)
    assert corpus.check(pair, outputs) == 0
    name = next(iter(pair.want))
    bits = outputs[name].reshape(-1, order="F").view(np.uint64)
    bits[bits.size // 2] ^= np.uint64(1)
    with pytest.raises(checks.CheckFailed):
        corpus.check(pair, outputs)


def test_corpus_draw_is_the_same_for_the_same_seed():
    def dicts(groups):
        return [[spec.to_dict() for spec in group] for group in groups]

    assert dicts(corpus_specs()) == dicts(corpus_specs())
    spec = corpus_specs(1, 0, 0)[0][0]
    first, again, other = (spec_inputs(spec, seed) for seed in (5, 5, 6))
    assert [a.tobytes() for a in first[0]] == [a.tobytes() for a in again[0]]
    assert first[1] == again[1]
    assert [a.tobytes() for a in first[0]] != [a.tobytes() for a in other[0]]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(table)


def test_printed_metric_names_and_units(pw, corpus):
    names = {name for name, _, _ in metrics.END_TO_END}
    for workload in (pw, corpus):
        values = {"setup_s": 1.0}
        values.update({key: 1.0 for key in workload.round().times})
        values.update(workload.compile_pass())
        values.update(workload.memory_pass())
        assert set(values) == names
        rendered = metrics.render(values, metrics.END_TO_END)
        assert {k: v["unit"] for k, v in rendered.items()} == {
            name: unit for name, unit, _ in metrics.END_TO_END}
    layer_names = {name for name, _, _ in metrics.PER_LAYER}
    for workload in (pw, corpus):
        traced = workload.traced(0.0)
        assert set(traced.metrics) <= layer_names
        assert traced.tracer.spans


def test_run_refuses_without_the_compiler_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    (copy / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "pw-cpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_layer_table_and_compare():
    tracer = Tracer()
    with tracer.span("op", OPERATION_LAYER):
        with tracer.span("parse_source", "frontend.parse"):
            pass
    table = tracer.layer_table()
    assert table["frontend.parse"]["calls"] == 1
    assert tracer.chrome_trace()["traceEvents"][0]["ph"] == "X"
    summary = {"workload": "pw-cpu", "seed": 1, "wall_s": 1.0,
               "layers": table, "metrics": {"kernel_s": 0.5}}
    faster = dict(summary, metrics={"kernel_s": 0.25})
    lines = compare(summary, faster)
    assert any("frontend.parse" in line for line in lines)
    assert any(line.startswith("kernel_s") and "-50.0%" in line
               for line in lines)
