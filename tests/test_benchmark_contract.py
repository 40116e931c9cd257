"""The library calls the benchmark's workloads make still work.

perfbench/workloads.py builds its inputs and checks with the public
names of probmorph (LearnerConfig and its keys, WFunctionalSpec and its
term flags, w_functional, the CLI's config keys). This runs one op of
each fit workload and every op of the verify cycle through the
benchmark's own check, so a break in those names fails here rather
than only in a benchmark run. The workload module is imported as
perfbench/run.py imports it, without writing bytecode, and nothing is
written under perfbench/.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(root: Path) -> list[tuple[str, int, int]]:
    return sorted(
        (str(p.relative_to(root)), p.stat().st_mtime_ns, p.stat().st_size)
        for p in root.rglob("*")
        if "out" not in p.relative_to(root).parts
    )


@pytest.fixture(scope="module")
def bench():
    before = _tree(PERFBENCH)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("harness"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    assert _tree(PERFBENCH) == before


def _run_ok(harness, op, tracer, slot=0, op_id=0):
    result = harness.execute(op, slot, tracer, op_id, [None] * (slot + 1))
    assert result.ok, result.error
    return result


def test_fit_small_op_and_its_traced_check(bench):
    harness, workloads = bench
    w = workloads.FitSmall(1)
    result = _run_ok(harness, w.cycle[0], harness.NullTracer())
    assert result.info["sup_mmd_err"] >= 0.0
    # traced, the check also evaluates W on each single-term spec, the operator norm included
    tracer = harness.Tracer()
    _run_ok(harness, w.cycle[0], tracer)
    names = {span[0] for span in tracer.spans}
    assert {"learning.fit", "learning.w_sup", "learning.w_lipschitz", "learning.w_opnorm"} <= names


def test_fit_large_op(bench):
    harness, workloads = bench
    w = workloads.FitLarge(1)
    _run_ok(harness, w.cycle[0], harness.NullTracer())


def test_every_verify_op(bench, tmp_path):
    harness, workloads = bench
    w = workloads.Verify(1, tmp_path)
    assert [op.kind for op in w.cycle] == [
        "laws", "bounds", "bounds", "bounds", "embed", "estimate", "deviation", "cerm",
    ]
    for slot, op in enumerate(w.cycle):
        _run_ok(harness, op, harness.NullTracer(), slot, slot)
