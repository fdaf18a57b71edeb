#!/usr/bin/env python3
"""Self-test of the benchmark's exact counts.

    python3 perfbench/selftest.py

1. Traces the two reference points whose series-product counts are known:
   119 products for the index-1 point (g = 1, w0 = w_j = C0^2 = 1, h = 0)
   and 595 for the index-1/2 survivor (g = 3/8, w_j = w0/4), both at the
   default order.
2. Runs every workload's traced run twice at seed 1, each in its own
   process, and requires the counts in ``trace_layers.EXACT_COUNTS`` (and
   every other ``count`` metric) to repeat exactly.

Exits 1 on the first mismatch.
"""
import sys

import run
import run_all
import trace_layers

KNOWN_MUL_COUNTS = {"index1": 119, "half": 595}
SEED = 1


def reference_counts() -> list:
    _, bfmix, workloads, _, _ = run.setup("case2-witness", SEED)
    points = (workloads.generate("case2-witness", SEED, cycles=0)[0]
              + workloads.generate("case2-survivors", SEED, cycles=0)[0])
    problems = []
    for family, want in KNOWN_MUL_COUNTS.items():
        point = next(p for p in points if p["family"] == family)
        tracer = trace_layers.Tracer(bfmix)
        tracer.install()
        try:
            result = workloads.run_point(point, bfmix)
        finally:
            tracer.uninstall()
        problems += workloads.check_point(point, result)
        got = tracer.metrics()["series.mul.calls"]
        print(f"{family:8s} reference: {got} series products (expected {want})")
        if got != want:
            problems.append(f"{family}: {got} series products, expected {want}")
    return problems


def repeated_counts() -> list:
    problems = []
    for workload in run_all.WORKLOADS:
        first, _ = run_all.run_one(workload, SEED, 1)
        second, _ = run_all.run_one(workload, SEED, 1)
        for name, m in first["metrics"].items():
            if m["unit"].startswith("count"):
                a, b = m["value"], second["metrics"][name]["value"]
                tag = "exact" if name in trace_layers.EXACT_COUNTS else "     "
                print(f"{workload:16s} {tag} {name:34s} {a:12.6g} {b:12.6g}")
                if a != b:
                    problems.append(f"{workload} {name}: {a} then {b}")
        if not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: traced run reported incorrect output")
    return problems


def main() -> int:
    problems = reference_counts() + repeated_counts()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
