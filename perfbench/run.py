"""Layered benchmark of probmorph: one workload, one closed-loop run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 15 --trace 0

--trace 0 times the ops untraced and prints the end-to-end metrics.
--trace 1 runs every op slot twice, untraced and traced, then probes the
layers the ops reach only indirectly, and prints the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A run record, and
in traced runs the spans, are written under perfbench/out/.
"""
import os
import sys
import time

START = time.perf_counter()
# pin BLAS to one thread before numpy can load it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
# leave the checkout's source tree free of bytecode caches, so every run imports alike
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import Tracer, layer_values, nearest_rank, run_cycles, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("fit-small", "fit-large", "verify")
# extra fresh-process set-ups for the median set-up time, half before the loop and
# half after it, so they sample the host's speed in two windows of the run
SETUP_CHILDREN = 4
# The set-up is mostly imports, and on a shared host their speed drifts over minutes
# in a way the numpy calibrations do not follow. Each set-up is therefore paired with
# this fixed import of the third-party modules probmorph uses, timed in a fresh
# process, and set-up times are scaled by REFERENCE_IMPORT_S over its median time.
REFERENCE_IMPORT = (
    "import time; t = time.perf_counter(); import numpy, scipy.linalg, scipy.spatial.distance; "
    "print(time.perf_counter() - t)"
)
REFERENCE_IMPORT_S = 0.45  # its typical time on the baseline host

GRAM_LABELS = ("48x12", "64x16", "100x20")
# (metric, span or count name, unit, scale from seconds or count, aggregate)
LAYER_METRICS = [
    ("spaces.product_space_ms", "spaces.product_space", "ms", 1e3, "median"),
    ("spaces.prob_measure_us", "spaces.prob_measure", "us", 1e6, "median"),
    ("spaces.dataset_us", "spaces.dataset", "us", 1e6, "median"),
    *[(f"kernels.gram_ms.{s}", f"kernels.gram.{s}", "ms", 1e3, "median") for s in GRAM_LABELS],
    *[(f"kernels.psd_check_ms.{s}", f"kernels.psd_check.{s}", "ms", 1e3, "median") for s in GRAM_LABELS],
    ("kernels.mmd_us", "kernels.mmd", "us", 1e6, "median"),
    ("morphisms.markov_kernel_us", "morphisms.markov_kernel", "us", 1e6, "median"),
    ("morphisms.compose_us", "morphisms.compose", "us", 1e6, "median"),
    ("morphisms.disintegrate_us", "morphisms.disintegrate", "us", 1e6, "median"),
    ("morphisms.opnorm_ms", "morphisms.opnorm", "ms", 1e3, "median"),
    ("losses.expected_risk_us", "losses.expected_risk", "us", 1e6, "median"),
    ("losses.empirical_risk_us", "losses.empirical_risk", "us", 1e6, "median"),
    ("learning.spec_build_ms", "learning.spec_build", "ms", 1e3, "median"),
    ("learning.fit_ms", "learning.fit", "ms", 1e3, "median"),
    ("learning.w_eval_ms", "learning.w_eval", "ms", 1e3, "median"),
    ("learning.w_sup_ms", "learning.w_sup", "ms", 1e3, "median"),
    ("learning.w_lipschitz_ms", "learning.w_lipschitz", "ms", 1e3, "median"),
    ("learning.w_opnorm_ms", "learning.w_opnorm", "ms", 1e3, "median"),
    ("learning.fidelity_us", "learning.fidelity", "us", 1e6, "median"),
    ("learning.iters", "learning.iters", "count", 1.0, "median"),
    ("learning.cap_hit_ratio", "learning.cap_hit_ratio", "1", 1.0, "mean"),
    ("learning.cerm_ms", "learning.cerm", "ms", 1e3, "median"),
    ("bounds.hoeffding_trial_us", "bounds.hoeffding_trial", "us", None, "median"),
    ("bounds.covering_trial_us", "bounds.covering_trial", "us", None, "median"),
    ("bounds.mmd_trial_us", "bounds.mmd_trial", "us", None, "median"),
    ("bounds.covering_number_ms", "bounds.covering_number", "ms", 1e3, "median"),
    ("serialize.config_parse_us", "serialize.config_parse", "us", 1e6, "median"),
    ("serialize.dataset_csv_ms", "serialize.dataset_csv", "ms", 1e3, "median"),
    ("serialize.kernel_json_ms", "serialize.kernel_json", "ms", 1e3, "median"),
    ("cli.laws_ms", "cli.laws", "ms", 1e3, "median"),
    ("cli.bounds_ms", "cli.bounds", "ms", 1e3, "median"),
    ("cli.embed_ms", "cli.embed", "ms", 1e3, "median"),
    ("cli.estimate_ms", "cli.estimate", "ms", 1e3, "median"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time, exit")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import probmorph from this checkout's src/, never from anywhere else."""
    if not (SRC / "probmorph" / "__init__.py").is_file():
        raise SystemExit(f"error: no probmorph sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import probmorph

    if Path(probmorph.__file__).resolve().parent != (SRC / "probmorph").resolve():
        raise SystemExit(f"error: imported probmorph from {probmorph.__file__}, not {SRC}")


def make_workload(name: str, seed: int, scratch: Path):
    import workloads

    if name == "fit-small":
        return workloads.FitSmall(seed)
    if name == "fit-large":
        return workloads.FitLarge(seed)
    return workloads.Verify(seed, scratch)


def run_child(argv: list[str]) -> str:
    """Run a fresh Python process from the checkout root; the last line it prints."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"child process {argv[:2]} failed: {done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def setup_samples(args, count: int) -> list[tuple[float, float]]:
    """(set-up time, reference import time) of `count` fresh-process set-ups, one after another."""
    argv = [
        str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    samples = []
    for _ in range(count):
        setup = json.loads(run_child(argv))["setup_s"]
        samples.append((setup, float(run_child(["-c", REFERENCE_IMPORT]))))
    return samples


def machine_record(workload) -> dict:
    import numpy
    import scipy

    rec = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": {"name": workload.name, "why": workload.why, "cycle_ops": len(workload.cycle)},
    }
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        rec["git_sha"] = done.stdout.strip() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            rec["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return rec


def end_to_end(loop, setups, workload) -> tuple[dict, list[str]]:
    """The end-to-end metrics; setups holds (set-up time, reference import time) pairs."""
    ops = [r for r in loop.results if not r.traced]
    ref = workload.calibrate.reference_s
    # a failed op misses every latency limit
    scaled = [r.scaled_s(ref) if r.ok else math.inf for r in ops]
    wall = [r.latency_s if r.ok else math.inf for r in ops]
    # every run makes at least min_cycles cycles; the tail percentile is the highest one
    # with ten ops beyond it in that minimum run, so every run and commit report the same one
    p = tail_percentile(workload.min_cycles * len(workload.cycle))
    errors = [r.info["sup_mmd_err"] for r in ops if r.ok and "sup_mmd_err" in r.info]
    passed = sum(r.ok for r in ops)
    calibrations = [r.calibration_s for r in ops]
    metrics = {
        "ops_per_s": (passed / sum(r.scaled_s(ref) for r in ops), "op/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(scaled, p) * 1e3, "ms"),
        "setup_s": (
            statistics.median(s for s, _ in setups) * REFERENCE_IMPORT_S / statistics.median(r for _, r in setups),
            "s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sup_mmd_err": (statistics.fmean(errors) if errors else math.nan, "1"),
    }
    failed = len(ops) - passed
    notes = [
        f"op times are scaled to the reference host speed: wall time x {ref * 1e3:.3g} ms / "
        f"{type(workload.calibrate).__name__} time around the op (median "
        f"{statistics.median(calibrations) * 1e3:.4g} ms in this run)",
        f"wall-clock: ops_per_s {passed / sum(r.latency_s for r in ops):.6g}, "
        f"op_p50_ms {statistics.median(wall) * 1e3:.6g}, "
        f"op_tail_ms {nearest_rank(wall, p) * 1e3:.6g}",
        f"op_tail_ms is p{p} of {len(ops)} ops, fixed for {workload.name} by its minimum run of "
        f"{workload.min_cycles} cycles of {len(workload.cycle)} ops",
        f"setup_s is the median of {len(setups)} set-ups x {REFERENCE_IMPORT_S} s / the median of as many "
        "reference imports; wall-clock (set-up, import): " + ", ".join(f"({s:.4f}, {r:.4f})" for s, r in setups),
        f"fail_ratio {failed / len(ops):.6g} (1): {failed} of {len(ops)} ops failed",
        f"sup_mmd_err is the mean over {len(errors)} checked fits",
    ]
    return metrics, notes


def per_layer(loop, tracer, probe_results, workload) -> tuple[dict, list[str]]:
    from workloads import BOUND_TRIALS

    values = layer_values(tracer)
    metrics, notes = {}, []
    for metric, name, unit, scale, agg in LAYER_METRICS:
        if name not in values:
            raise RuntimeError(f"no spans for {name}")
        vals, source = values[name]
        scale = scale if scale is not None else 1e6 / BOUND_TRIALS
        value = (statistics.median(vals) if agg == "median" else statistics.fmean(vals)) * scale
        metrics[metric] = (value, unit)
        notes.append(f"{metric}: {agg} of {len(vals)} from {source}")
    for label in GRAM_LABELS:
        nx, ny = (int(v) for v in label.split("x"))
        metrics[f"kernels.gram_bytes.{label}"] = (8.0 * (nx * ny) ** 2, "B")
    nx, ny = workload.grid
    metrics["learning.fidelity_bytes"] = (8.0 * (nx * ny) ** 2, "B")
    notes.append(
        "kernels.gram_bytes.* and learning.fidelity_bytes are computed as 8 N^2, not measured; "
        "the L3 cache in the run record may hold them, so they are no DRAM-bandwidth claim"
    )
    ref = workload.calibrate.reference_s
    untraced = sum(r.scaled_s(ref) for r in loop.results if not r.traced)
    traced = sum(r.scaled_s(ref) for r in loop.results if r.traced)
    # share of the untraced ops_per_s that tracing costs, on the same op slots
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - untraced / traced), "%")
    notes.append(f"{len(probe_results)} probe ops ran")
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=OUT) as scratch:
        return measure(args, Path(scratch))


def measure(args, scratch: Path) -> int:
    workload = make_workload(args.workload, args.seed, scratch / "workload")
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        setups = [(setup_s, float(run_child(["-c", REFERENCE_IMPORT])))]
        setups += setup_samples(args, SETUP_CHILDREN // 2)
    tracer = Tracer() if args.trace else None
    loop = run_cycles(workload.cycle, args.seconds, workload.min_cycles, tracer, workload.calibrate)
    probe_results = []
    if args.trace:
        from workloads import Probes

        seen = {name for name, _, op_id in tracer.self_times() + tracer.counts if op_id is not None}
        probe_results = Probes(args.seed, scratch / "probes").run(tracer, seen)
        metrics, notes = per_layer(loop, tracer, probe_results, workload)
    else:
        setups += setup_samples(args, SETUP_CHILDREN - SETUP_CHILDREN // 2)
        metrics, notes = end_to_end(loop, setups, workload)

    results = loop.results + probe_results
    failed = sum(not r.ok for r in results)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "machine": machine_record(workload),
        "args": vars(args),
        "cycles": loop.cycles,
        "digest": loop.digest(),
        "slot_digests": loop.slot_digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "ops": [
            {
                "slot": r.slot, "kind": r.kind, "latency_s": r.latency_s, "calibration_s": r.calibration_s,
                "traced": r.traced, "ok": r.ok, "error": r.error,
            }
            for r in results
        ],
    }
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"spans": tracer.spans, "counts": tracer.counts})
        )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{loop.cycles} cycles of {len(workload.cycle)} ops, {len(results)} attempted, {failed} failed")
    print(f"why: {workload.why}")
    print(f"digest {loop.digest()}")
    for r in results:
        if not r.ok:
            print(f"FAILED slot {r.slot} ({r.kind}, traced={r.traced}):\n{r.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"record {OUT.relative_to(ROOT) / f'record-{stem}.json'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
