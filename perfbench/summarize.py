"""Run the benchmark over several seeds and summarize it, as a baseline file.

Run from the root of a source checkout:

    python3 perfbench/summarize.py --seeds 10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this makes one untraced run per seed
and one traced run, each in its own process, one after another. It
reports the median and quartiles of every end-to-end metric, their
spread (the distance between the quartiles as a share of the median)
against the metric's bound, the traced per-layer table and the tracing
overhead, and each run's output digest.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"record-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"run_seconds": seconds, "seeds": seeds, "machine": None, "workloads": {}}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        entry = {"attempted": 0, "failed": 0, "digests": {}}
        for seed in seeds:
            result, record = run_once(name, seed, seconds, 0)
            machine = dict(record["machine"])
            entry["why"] = machine.pop("workload")["why"]
            summary["machine"] = summary["machine"] or machine
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["digests"][str(seed)] = record["digest"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()
            ), flush=True)
        entry["end_to_end"] = {}
        for metric, vals in values.items():
            stats = quartiles(vals)
            stats.update(unit=units[metric], bound=bounds[metric], values=vals)
            entry["end_to_end"][metric] = stats
            if stats["spread"] > bounds[metric] / 3:
                steady = False
            print(f"  {name} {metric}: median {stats['median']:.5g} {units[metric]}, "
                  f"spread {stats['spread']:.3f} (bound {bounds[metric]})", flush=True)
        result, record = run_once(name, seeds[0], seconds, 1)
        entry["attempted_traced"] = result["attempted"]
        entry["failed_traced"] = result["failed"]
        entry["per_layer"] = {
            metric: {"value": m["value"], "unit": m["unit"]}
            for metric, m in result["metrics"].items()
        }
        entry["per_layer_sources"] = record["notes"]
        entry["trace_overhead_pct"] = result["metrics"]["trace.overhead_pct"]["value"]
        print(f"  {name} traced: overhead {entry['trace_overhead_pct']:.2f}%", flush=True)
        summary["workloads"][name] = entry
    summary["steady"] = steady
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady: every spread below a third of its bound" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
