#!/usr/bin/env python3
"""Run the benchmark in two source trees in alternating pairs and write
``BENCH_<short-sha>.json``.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seed 4001 --workload case2-survivors \\
        --claim case2-survivors

For each workload in turn, pair k runs ``perfbench/run.py --workload W
--seed S --seconds R --trace 0`` (the command and ``run_seconds`` of
``BENCHMARK.json``) once in each tree, at one seed per pair; the seeds
are consecutive, from ``--seed`` on, across workloads and pairs, and the
tree that runs first alternates from pair to pair (``plan``).  Each run
reads the last line of the benchmark's standard output, its JSON summary.

The file holds every run (``runs[side][workload][seed]``), the order they
ran in, and a summary per workload and end-to-end metric (``compare``):
both sides' medians and quartiles (``statistics.quantiles(n=4)``,
exclusive method), the pairs the change won, the median change in
percent, the fraction by which the change is worse (negative when better)
and the metric's bound.  Each workload's summary also counts, per side,
the runs that were not correct and the points that failed
(``correctness``).  ``--claim W`` adds the test of a claimed gain on
``points_per_s``: every run on both sides is correct with no failed
point, the change wins at least 9 in 10 pairs, and the medians differ by
more than the parent's interquartile range.  Nothing under ``perfbench/``
is changed; its results land in each tree's ``.bench_results/``.

``--process`` (``--process --parent ../parent --change . --pairs 10``)
times whole processes instead, the first metric of the north star.  Pairs
run ``python -m bfmix.cli analyze ...`` in each tree on each reference
line of ``scripts/run_case_studies.py`` (``PROCESS_LINES``, one per case)
under two bytecode settings: ``compiled``, with
``PYTHONDONTWRITEBYTECODE=1``, where each process compiles ``src/`` (the
trees must hold no ``__pycache__`` under ``src/``), and ``cached``, where
``PYTHONPYCACHEPREFIX`` points into a temporary directory that one
untimed run per tree and line fills, so no tree is written.  The file
(``PROCESS_<short-sha>.json`` by default) holds every wall time
(``"unit": "ms"``), the ``PYTHONDONTWRITEBYTECODE`` the script found, and
per setting and line the summary of a benchmark metric, lower being
better.  It claims nothing.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLAIM_RULE = ("every run correct with 0 failed, change wins >= 9 of 10 "
              "pairs and the medians differ by more than the parent's "
              "interquartile range")


def plan(keys, pairs):
    """[(key, k, side), ...]: ``pairs`` pairs per key, numbered k = 0, 1,
    ... across all keys, the first side alternating from pair to pair."""
    return [(key, i * pairs + j, side)
            for i, key in enumerate(keys) for j in range(pairs)
            for side in (("parent", "change"), ("change", "parent"))[j % 2]]


def quartiles(values):
    """The three quartiles; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="exclusive")


def compare(parent, change, higher):
    """Both sides' medians and quartiles of paired values, the pairs the
    change won, the median change in percent and the fraction by which the
    change is worse (negative when better)."""
    pm, cm = statistics.median(parent), statistics.median(change)
    return {
        "pairs": len(parent),
        "change_wins": sum(1 for a, b in zip(parent, change)
                           if (b > a if higher else b < a)),
        "parent_median": round(pm, 6), "change_median": round(cm, 6),
        "parent_quartiles": [round(v, 6) for v in quartiles(parent)],
        "change_quartiles": [round(v, 6) for v in quartiles(change)],
        "median_change_pct": round(100 * (cm / pm - 1), 2),
        "worse_frac": round((pm - cm) / pm if higher else (cm - pm) / pm, 4)}


def summarize(runs, end_to_end):
    """{workload: {metric: summary}} over the pairs of ``runs``, which maps
    side -> workload -> seed -> run record; ``end_to_end`` is the list of
    BENCHMARK.json metrics (name, better, bound).  Each workload's
    ``correctness`` counts, per side, the paired runs that were not correct
    and the points that failed in them."""
    out = {}
    for w, parent_runs in runs["parent"].items():
        seeds = [s for s in parent_runs if s in runs["change"].get(w, {})]
        pairs = [(parent_runs[s]["metrics"], runs["change"][w][s]["metrics"])
                 for s in seeds]
        summary = {
            m["name"]: {"bound": m["bound"], **compare(
                [a[m["name"]] for a, _ in pairs],
                [b[m["name"]] for _, b in pairs], m["better"] == "higher")}
            for m in end_to_end}
        summary["correctness"] = {
            side: {"incorrect_runs": sum(not runs[side][w][s]["correct"]
                                         for s in seeds),
                   "failed_points": sum(runs[side][w][s]["failed"]
                                        for s in seeds)}
            for side in ("parent", "change")}
        out[w] = summary
    return out


def claim(summary, workload, metric="points_per_s"):
    """The claimed-gain test on one workload's summary of ``metric``."""
    s = summary[workload][metric]
    sound = not any(any(c.values())
                    for c in summary[workload]["correctness"].values())
    q1, _, q3 = s["parent_quartiles"]
    gain = s["change_median"] - s["parent_median"]
    return {"workload": workload, "metric": metric, "rule": CLAIM_RULE,
            "pairs": s["pairs"], "change_wins": s["change_wins"],
            "parent_median": s["parent_median"],
            "change_median": s["change_median"],
            "parent_iqr": round(q3 - q1, 6), "median_gain": round(gain, 6),
            "met": (sound and s["change_wins"] >= 0.9 * s["pairs"]
                    and abs(gain) > q3 - q1 and s["worse_frac"] < 0)}


#: ``bfmix analyze`` arguments of the reference lines of
#: scripts/run_case_studies.py, one per case: case 1, the index-5/2
#: surviving triple and case 3
PROCESS_LINES = {
    "case1": ["case1", "--omega0", "1", "--omega", "2", "--gbf", "1",
              "--csum", "3"],
    "case2": ["case2", "--gbf", "35/8", "--omega0", "1", "--omegaj",
              "55/28", "--c0sq", "72/343", "--h", "0"],
    "case3": ["case3", "--omega0", "1", "--omega1", "1", "--c0sq", "1/100",
              "--c1sq", "1", "--action", "3"],
}

#: the bytecode settings of --process
BYTECODE = {
    "compiled": "PYTHONDONTWRITEBYTECODE=1 and no bytecode in the tree: "
                "each process compiles src/",
    "cached": "PYTHONPYCACHEPREFIX in a temporary directory that one "
              "untimed run per tree and line fills",
}


def process_env(tree, setting, prefix):
    """The environment of a ``bfmix analyze`` process in ``tree``: its own
    ``src`` first on the path, and the bytecode ``setting``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(Path(tree) / "src")
    if setting == "compiled":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def run(argv, tree, env=None):
    """(standard output, wall time in ms) of one process in ``tree``;
    raises RuntimeError on a nonzero exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          text=True)
    ms = 1e3 * (time.perf_counter() - t0)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout, ms


def run_process(trees, pairs):
    """The fields of a --process result file: every wall time in ms of the
    reference lines in fresh processes, and their summary."""
    for tree in trees.values():
        if any((tree / "src").rglob("__pycache__")):
            raise SystemExit(f"{tree}/src holds __pycache__: the compiled "
                             "setting would read its bytecode")
    argv = [sys.executable, "-m", "bfmix.cli", "analyze"]
    runs = {"parent": {}, "change": {}}
    order = plan([(s, line) for s in BYTECODE for line in PROCESS_LINES],
                 pairs)
    with tempfile.TemporaryDirectory() as prefix:
        envs = {(side, s): process_env(tree, s, prefix)
                for side, tree in trees.items() for s in BYTECODE}
        for side, tree in trees.items():
            for line in PROCESS_LINES.values():
                run(argv + line, tree, envs[side, "cached"])
        for (setting, line), _, side in order:
            _, ms = run(argv + PROCESS_LINES[line], trees[side],
                        envs[side, setting])
            runs[side].setdefault(setting, {}).setdefault(line, []).append(
                round(ms, 3))
    return {
        "command": f"{Path(sys.executable).name} -m bfmix.cli analyze LINE",
        "lines": PROCESS_LINES, "bytecode": BYTECODE, "unit": "ms",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "order": "per setting and line, alternating pairs; the side that "
                 "runs first alternates from pair to pair",
        "run_order": [[s, line, side] for (s, line), _, side in order],
        "runs": runs,
        "summary": {s: {line: compare(p, runs["change"][s][line], False)
                        for line, p in lines.items()}
                    for s, lines in runs["parent"].items()}}


def run_bench(trees, bench, workloads, pairs, seed, claimed):
    """The fields of a benchmark result file: every run of ``workloads``,
    their summary, and the test of a gain claimed on ``claimed``."""
    command, seconds = bench["command"], bench["run_seconds"]
    order = [(w, seed + k, side) for w, k, side in plan(workloads, pairs)]
    runs = {"parent": {}, "change": {}}
    for w, s, side in order:
        stdout, _ = run([*command, "--workload", w, "--seed", str(s),
                         "--seconds", str(seconds), "--trace", "0"],
                        trees[side])
        last = json.loads(stdout.strip().splitlines()[-1])
        runs[side].setdefault(w, {})[str(s)] = {
            "attempted": last["attempted"], "correct": last["correct"],
            "failed": last["failed"],
            "metrics": {k: round(v["value"], 6)
                        for k, v in last["metrics"].items()}}
        print(f"{w} {s} {side} points_per_s "
              f"{last['metrics']['points_per_s']['value']:.1f} failed "
              f"{last['failed']}", file=sys.stderr, flush=True)
    summary = summarize(runs, bench["end_to_end"])
    return {
        "command": " ".join(command) + " --workload W --seed N --seconds "
                   f"{seconds} --trace 0",
        "order": "alternating pairs, one seed per pair; within each "
                 "workload the side that runs first alternates from pair "
                 "to pair",
        "claim": claim(summary, claimed) if claimed else None,
        "run_order": [list(x) for x in order],
        "runs": runs, "summary": summary}


def write(out, trees, shas, prefix, fields):
    """Write the shared header (both shas, the host, the quartile method)
    and ``fields`` to ``out``, by default ``<prefix>_<change sha>.json`` in
    the change tree; returns the path."""
    result = {"parent": shas["parent"], "change": shas["change"],
              "host": host(),
              "quartiles": "statistics.quantiles(n=4), exclusive method",
              **fields}
    out = out or trees["change"] / f"{prefix}_{shas['change']}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return out


def short_sha(tree):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def host():
    cpu = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return f"{os.cpu_count()}-vCPU {cpu}, Python {platform.python_version()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="source tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="source tree of the change")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int,
                    help="seed of the first pair; the others follow it "
                         "(required without --process)")
    ap.add_argument("--process", action="store_true",
                    help="time fresh bfmix analyze processes on the "
                         "reference lines instead of the benchmark")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--claim", help="workload whose points_per_s gain is "
                                    "claimed")
    ap.add_argument("--parent-sha", help="default: git rev-parse there")
    ap.add_argument("--change-sha", help="default: git rev-parse there")
    ap.add_argument("--out", type=Path,
                    help="default: BENCH_<change>.json, or "
                         "PROCESS_<change>.json with --process, in the "
                         "change tree")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {"parent": args.parent_sha or short_sha(trees["parent"]),
            "change": args.change_sha or short_sha(trees["change"])}
    if not all(shas.values()):
        ap.error("a tree is no git checkout: give --parent-sha/--change-sha")
    if args.process and (args.claim or args.workload):
        ap.error("--process takes no --claim and no --workload")
    if args.process:
        prefix, fields = "PROCESS", run_process(trees, args.pairs)
    elif args.seed is None:
        ap.error("the benchmark needs --seed")
    else:
        prefix, fields = "BENCH", run_bench(trees, bench, workloads,
                                            args.pairs, args.seed, args.claim)
    print(write(args.out, trees, shas, prefix, fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
