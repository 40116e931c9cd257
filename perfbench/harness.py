"""Workload-independent parts of the benchmark: spans, the closed loop, statistics.

Nothing here imports probmorph, so the self-tests can exercise the loop
and the statistics with fake operations.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

PROBE = "probe"  # op id of spans made by probe calls outside any op


class NullTracer:
    """The tracer of an untraced run: calls straight through."""

    enabled = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records one span per traced call, kept in memory until the run ends.

    A span is (name, start, end, parent index, op id). Spans nest on the
    one thread the benchmark runs on, so a parent's children never
    overlap and their durations can simply be summed.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple[str, float, Any]] = []
        self.op_id: Any = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, float(value), self.op_id))

    def self_times(self) -> list[tuple[str, float, Any]]:
        """(name, self time in s, op id) per span: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, end - start - child[i], op_id)
            for i, (name, start, end, _, op_id) in enumerate(self.spans)
        ]


def layer_values(tracer: Tracer) -> dict[str, tuple[list[float], str]]:
    """Per span or count name: its values and where they came from.

    Values made inside or alongside the workload's own ops win; values
    from probe calls are used only for names the ops never reach.
    """
    by_name: dict[str, dict[bool, list[float]]] = {}
    samples = tracer.self_times() + tracer.counts
    for name, value, op_id in samples:
        by_name.setdefault(name, {True: [], False: []})[op_id != PROBE].append(value)
    out = {}
    for name, groups in by_name.items():
        if groups[True]:
            out[name] = (groups[True], "op")
        else:
            out[name] = (groups[False], "probe")
    return out


@dataclass
class Op:
    """One operation slot of a workload cycle.

    run(tracer) performs the timed work and returns its output.
    check(output, tracer) runs after the timer stops; it returns a dict
    of named figures for the metrics and raises CheckFailed (or any
    error) when the output is wrong. digest(output) gives bytes that
    must repeat exactly whenever the slot runs on the same inputs.
    """

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], dict]
    digest: Callable[[Any], bytes]


class CheckFailed(Exception):
    pass


@dataclass
class OpResult:
    slot: int
    kind: str
    latency_s: float
    traced: bool
    ok: bool
    error: str = ""
    info: dict = field(default_factory=dict)
    calibration_s: float | None = None  # the host-speed calibration around the op

    def scaled_s(self, reference_s: float) -> float:
        """The op's latency at the speed where the calibration takes reference_s."""
        return self.latency_s * reference_s / self.calibration_s


@dataclass
class LoopResult:
    results: list[OpResult]
    slot_digests: list[str]
    cycles: int

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.slot_digests:
            h.update(d.encode())
        return h.hexdigest()


def execute(op: Op, slot: int, tracer, op_id, first_digest: list) -> OpResult:
    """Run one op, time it, then check it; an error in either is a failure.

    first_digest[slot] holds the digest of the slot's first output; a
    later output of the same slot that differs fails its check.
    """
    tracer.op_id = op_id
    try:
        start = perf_counter()
        try:
            output = tracer.call(f"op.{op.kind}", op.run, tracer)
        finally:
            latency = perf_counter() - start
        # the check runs after the timer has stopped, and always
        info = tracer.call(f"check.{op.kind}", op.check, output, tracer)
        digest = hashlib.sha256(op.digest(output)).hexdigest()
        if first_digest[slot] is None:
            first_digest[slot] = digest
        elif digest != first_digest[slot]:
            raise CheckFailed(f"slot {slot} output changed on a rerun of the same input")
    except Exception:
        return OpResult(slot, op.kind, latency, tracer.enabled, False, traceback.format_exc())
    finally:
        tracer.op_id = None
    return OpResult(slot, op.kind, latency, tracer.enabled, True, info=info)


def run_cycles(
    cycle: list[Op],
    seconds: float,
    min_cycles: int,
    tracer=None,
    calibrate: Callable[[], float] = lambda: 1.0,
) -> LoopResult:
    """Closed loop, one client: each op starts when the previous one returns.

    The cycle of op slots repeats until `seconds` of loop time have passed
    and at least `min_cycles` cycles have run, and always ends on a whole
    cycle, so every run sees the same mix of ops. With a tracer, each slot runs
    twice, once untraced and once traced, in alternating order, so the
    pair gives the tracing overhead on identical work. `calibrate` runs
    before the first op and after every op, outside the op timers; each
    op records the mean of the two calibration times around it.
    """
    null = NullTracer()
    first_digest: list = [None] * len(cycle)
    results: list[OpResult] = []
    before = calibrate()

    def run(op, slot, tr, op_id):
        nonlocal before
        result = execute(op, slot, tr, op_id, first_digest)
        after = calibrate()
        result.calibration_s = (before + after) / 2.0
        before = after
        results.append(result)

    begin = perf_counter()
    cycles = 0
    while cycles < min_cycles or perf_counter() - begin < seconds:
        for slot, op in enumerate(cycle):
            op_id = cycles * len(cycle) + slot
            if tracer is None:
                run(op, slot, null, op_id)
            else:
                order = (null, tracer) if op_id % 2 == 0 else (tracer, null)
                for tr in order:
                    run(op, slot, tr, op_id)
        cycles += 1
    return LoopResult(results, [d or "" for d in first_digest], cycles)


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """The highest whole percentile that leaves at least `beyond` of n ops above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    values is the one at rank ceil(p n / 100). Returns None when fewer
    than beyond + 1 ops ran.
    """
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p
    return None


def nearest_rank(values: list[float], p: int) -> float:
    """The p-th percentile of values by nearest rank."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, and their spread as a share of the median."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else math.inf
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}
