#!/usr/bin/env python3
"""Run every workload, each in its own process, and print every metric.

    python3 perfbench/run_all.py                      # seed 1, end to end
    python3 perfbench/run_all.py --seeds 1 2 3 4 5    # spread over seeds
    python3 perfbench/run_all.py --trace 1            # per-layer metrics

Each metric is printed by name and unit, with one value per seed, the
median, and the spread: the distance between the first and third quartile
as a share of the median (with at least two seeds).  Each run measures
``run_seconds`` from ``BENCHMARK.json``.  The table also goes to
``.bench_results/summary-trace<t>.json``.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, trace):
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print(line)
    return json.loads(lines[-1]), wall


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    summary = {}
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            result, wall = run_one(workload, seed, args.trace)
            runs.append(result)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s", flush=True)
        table = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            table[name] = {"unit": m["unit"], "values": values,
                           "median": statistics.median(values),
                           "spread": spread(values)}
            print(f"{workload:16s} {name:34s} {m['unit']:11s} "
                  f"median {table[name]['median']:12.6g}  "
                  f"spread {table[name]['spread']:7.4f}  "
                  + " ".join(f"{v:.6g}" for v in values), flush=True)
        summary[workload] = {"seeds": args.seeds, "metrics": table,
                             "attempted": [r["attempted"] for r in runs],
                             "failed": [r["failed"] for r in runs]}
    out = ROOT / ".bench_results" / f"summary-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
