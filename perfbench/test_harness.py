"""Self-tests of the benchmark harness.

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_harness.py -q
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    CheckFailed, LoopResult, NullTracer, Op, OpResult, Tracer, layer_values, nearest_rank, run_cycles, tail_percentile,
)


def test_tail_percentile_on_known_lists():
    hundred = [float(v) for v in range(1, 101)]
    assert tail_percentile(len(hundred)) == 90
    assert nearest_rank(hundred, 90) == 90.0
    # 60 ops: p83 sits at rank ceil(49.8) = 50, leaving 10 above; p84 would leave 9
    sixty = [float(v) for v in range(60, 0, -1)]
    assert tail_percentile(len(sixty)) == 83
    assert nearest_rank(sixty, 83) == 50.0
    assert tail_percentile(20) == 50
    assert tail_percentile(10) is None


def test_tail_percentile_is_fixed_by_the_minimum_run():
    # a run twice as long keeps the percentile of its minimum run
    p = tail_percentile(48)
    assert p == 79
    assert nearest_rank([float(v) for v in range(1, 97)], p) == 76.0


def _op(kind, run=lambda tr: 1, check=lambda out, tr: {}, digest=lambda out: b"same"):
    return Op(kind, run, check, digest)


def _raise(exc):
    raise exc


def test_raising_op_and_failed_check_both_count_as_failures():
    cycle = [
        _op("ok"),
        _op("raises", run=lambda tr: _raise(ValueError("boom"))),
        _op("bad-check", check=lambda out, tr: _raise(CheckFailed("wrong output"))),
    ]
    loop = run_cycles(cycle, seconds=0.0, min_cycles=1)
    assert loop.cycles == 1
    assert loop.attempted == 3
    assert loop.failed == 2
    assert [r.ok for r in loop.results] == [True, False, False]
    assert "boom" in loop.results[1].error and "wrong output" in loop.results[2].error


def test_output_that_changes_on_rerun_fails_its_check():
    outputs = iter([b"a", b"a", b"b"])
    loop = run_cycles([_op("drifts", run=lambda tr: next(outputs), digest=lambda out: out)], 0.0, 3)
    assert [r.ok for r in loop.results] == [True, True, False]


def test_traced_loop_pairs_each_slot_and_keeps_self_times():
    tracer = Tracer()

    def run(tr):
        return tr.call("inner", lambda: sum(range(1000)))

    loop = run_cycles([_op("work", run=run)], 0.0, 1, tracer)
    assert [r.traced for r in loop.results] == [False, True]
    names = [s[0] for s in tracer.spans]
    assert names == ["op.work", "inner", "check.work"]
    selfs = {name: t for name, t, _ in tracer.self_times()}
    op_span, inner = tracer.spans[0], tracer.spans[1]
    assert selfs["op.work"] == pytest.approx((op_span[2] - op_span[1]) - (inner[2] - inner[1]))
    assert layer_values(tracer)["inner"][1] == "op"


def test_each_op_is_scaled_by_the_calibrations_around_it():
    calibrations = iter([1.0, 3.0, 2.0])
    loop = run_cycles([_op("a"), _op("b")], 0.0, 1, calibrate=lambda: next(calibrations))
    assert [r.calibration_s for r in loop.results] == [2.0, 2.5]
    first = loop.results[0]
    assert first.scaled_s(4.0) == pytest.approx(first.latency_s * 2.0)


def test_null_tracer_calls_through():
    assert NullTracer().call("x", lambda a, b=0: a + b, 1, b=2) == 3


def _digest(workload_cls, seed, slots, *args):
    loop = run_cycles(workload_cls(seed, *args).cycle[:slots], 0.0, 1)
    assert loop.failed == 0, [r.error for r in loop.results if not r.ok]
    return loop.digest()


def test_same_seed_gives_the_same_digest(tmp_path):
    from workloads import FitSmall, Verify

    assert _digest(Verify, 5, 8, tmp_path) == _digest(Verify, 5, 8, tmp_path)
    assert _digest(Verify, 5, 8, tmp_path) != _digest(Verify, 6, 8, tmp_path)
    assert _digest(FitSmall, 5, 2) == _digest(FitSmall, 5, 2)
    assert _digest(FitSmall, 5, 2) != _digest(FitSmall, 6, 2)


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m for m, *_ in run.LAYER_METRICS}
    layer |= {f"kernels.gram_bytes.{s}" for s in run.GRAM_LABELS}
    layer |= {"learning.fidelity_bytes", "trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    ops = [
        OpResult(i, "fake", 0.1 + i / 100, False, True, info={"sup_mmd_err": 0.5}, calibration_s=1.0)
        for i in range(20)
    ]
    loop = LoopResult(ops, [], 1)
    workload = type("Fake", (), {
        "name": "fake", "cycle": ops, "min_cycles": 1, "calibrate": type("Cal", (), {"reference_s": 1.0})(),
    })()
    metrics, _ = run.end_to_end(loop, [(1.0, 0.45)], workload)
    assert {m["name"] for m in bench["end_to_end"]} == set(metrics)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
