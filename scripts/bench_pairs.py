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
tree that runs first alternates from pair to pair.  Each run reads the
last line of the benchmark's standard output, its JSON summary.

The file holds every run (``runs[side][workload][seed]``), the order they
ran in, and a summary per workload and end-to-end metric: both sides'
medians and quartiles (``statistics.quantiles(n=4)``, exclusive method),
the pairs the change won, the median change in percent, the fraction by
which the change is worse (negative when better) and the metric's bound.
Each workload's summary also counts, per side, the runs that were not
correct and the points that failed (``correctness``).  ``--claim W`` adds
the test of a claimed gain on ``points_per_s``: every run on both sides is
correct with no failed point, the change wins at least 9 in 10 pairs, and
the medians differ by more than the parent's interquartile range.  Nothing
under ``perfbench/`` is changed; its results land in each tree's
``.bench_results/``.

``--process`` times whole processes instead (the first metric of the
north star, the wall time of ``bfmix analyze``):

    python3 scripts/bench_pairs.py --process --parent ../parent \
        --change . --pairs 10

Pair k runs ``python -m bfmix.cli analyze ...`` once in each tree on each
of the three reference lines of ``scripts/run_case_studies.py``
(``PROCESS_LINES``: one line per case), the first tree alternating from
pair to pair, under two bytecode settings: ``compiled``, with
``PYTHONDONTWRITEBYTECODE=1``, where each process compiles ``src/`` (the
trees must hold no ``__pycache__`` under ``src/``), and ``cached``, where
``PYTHONPYCACHEPREFIX`` points into a temporary directory that one untimed
run per tree and line fills, so no tree is written.  The file
(``PROCESS_<short-sha>.json`` by default) holds every wall time in ms, the
``PYTHONDONTWRITEBYTECODE`` the script found, and per setting and line
both sides' medians and quartiles, the pairs the change won (lower is
better) and the median change in percent.  It claims nothing.
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


def plan(workloads, pairs, seed):
    """[(workload, seed, side), ...]: ``pairs`` pairs per workload, one
    consecutive seed per pair, the first side alternating from pair to
    pair."""
    order = []
    for w in workloads:
        for k in range(pairs):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            order += [(w, seed, side) for side in sides]
            seed += 1
    return order


def quartiles(values):
    """The three quartiles; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="exclusive")


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
        summary = {}
        for m in end_to_end:
            name, higher = m["name"], m["better"] == "higher"
            p = [a[name] for a, _ in pairs]
            c = [b[name] for _, b in pairs]
            pm, cm = statistics.median(p), statistics.median(c)
            wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
            worse = (pm - cm) / pm if higher else (cm - pm) / pm
            summary[name] = {
                "bound": m["bound"], "pairs": len(pairs), "change_wins": wins,
                "parent_median": round(pm, 6), "change_median": round(cm, 6),
                "parent_quartiles": [round(v, 6) for v in quartiles(p)],
                "change_quartiles": [round(v, 6) for v in quartiles(c)],
                "median_change_pct": round(100 * (cm / pm - 1), 2),
                "worse_frac": round(worse, 4)}
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


def process_plan(lines, pairs):
    """[(setting, line, side), ...]: ``pairs`` pairs per setting and line,
    the first side alternating from pair to pair."""
    order = []
    for setting in BYTECODE:
        for line in lines:
            for k in range(pairs):
                sides = (("parent", "change") if k % 2 == 0
                         else ("change", "parent"))
                order += [(setting, line, side) for side in sides]
    return order


def process_env(tree, setting, prefix):
    """The environment of a ``bfmix analyze`` process in ``tree``: its own
    ``src`` first on the path, and the bytecode ``setting``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(tree) / "src")
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if setting == "compiled":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def time_process(tree, line, env):
    """Wall time in ms of one ``python -m bfmix.cli analyze`` process."""
    argv = [sys.executable, "-m", "bfmix.cli", "analyze", *line]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          text=True)
    ms = 1e3 * (time.perf_counter() - t0)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return ms


def process_summary(runs):
    """{setting: {line: summary}} of ``runs``, which maps side -> setting ->
    line -> wall times in ms, pair by pair; lower is better."""
    out = {}
    for setting, lines in runs["parent"].items():
        out[setting] = {}
        for line, p in lines.items():
            c = runs["change"][setting][line]
            pm, cm = statistics.median(p), statistics.median(c)
            out[setting][line] = {
                "pairs": len(p),
                "change_wins": sum(1 for a, b in zip(p, c) if b < a),
                "parent_median_ms": round(pm, 3),
                "change_median_ms": round(cm, 3),
                "parent_quartiles_ms": [round(v, 3) for v in quartiles(p)],
                "change_quartiles_ms": [round(v, 3) for v in quartiles(c)],
                "median_change_pct": round(100 * (cm / pm - 1), 2)}
    return out


def run_process(trees, shas, pairs, out):
    """Time the reference lines in fresh processes; write and return the
    result file's path."""
    for tree in trees.values():
        if any((tree / "src").rglob("__pycache__")):
            raise SystemExit(f"{tree}/src holds __pycache__: the compiled "
                             "setting would read its bytecode")
    runs = {side: {s: {line: [] for line in PROCESS_LINES}
                   for s in BYTECODE} for side in trees}
    order = process_plan(list(PROCESS_LINES), pairs)
    with tempfile.TemporaryDirectory() as prefix:
        envs = {(side, s): process_env(tree, s, prefix)
                for side, tree in trees.items() for s in BYTECODE}
        for side, tree in trees.items():
            for line in PROCESS_LINES.values():
                time_process(tree, line, envs[side, "cached"])
        for setting, line, side in order:
            runs[side][setting][line].append(round(time_process(
                trees[side], PROCESS_LINES[line], envs[side, setting]), 3))
    result = {
        "parent": shas["parent"], "change": shas["change"],
        "command": f"{Path(sys.executable).name} -m bfmix.cli analyze LINE",
        "lines": PROCESS_LINES, "bytecode": BYTECODE,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "host": host(),
        "order": "per setting and line, alternating pairs; the side that "
                 "runs first alternates from pair to pair",
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        "run_order": [list(x) for x in order],
        "runs": runs, "summary": process_summary(runs)}
    out = out or trees["change"] / f"PROCESS_{shas['change']}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return out


def run_once(tree, command, workload, seed, seconds):
    """The run record of one benchmark run in ``tree``."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": last["attempted"], "correct": last["correct"],
            "failed": last["failed"],
            "metrics": {k: round(v["value"], 6)
                        for k, v in last["metrics"].items()}}


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
    if args.process:
        if args.claim or args.workload:
            ap.error("--process takes no --claim and no --workload")
        print(run_process(trees, shas, args.pairs, args.out))
        return 0
    if args.seed is None:
        ap.error("the benchmark needs --seed")
    command = bench["command"]
    seconds = bench["run_seconds"]

    order = plan(workloads, args.pairs, args.seed)
    runs = {"parent": {}, "change": {}}
    for w, seed, side in order:
        record = run_once(trees[side], command, w, seed, seconds)
        runs[side].setdefault(w, {})[str(seed)] = record
        print(f"{w} {seed} {side} points_per_s "
              f"{record['metrics']['points_per_s']:.1f} failed "
              f"{record['failed']}", file=sys.stderr, flush=True)
    summary = summarize(runs, bench["end_to_end"])
    result = {
        "parent": shas["parent"], "change": shas["change"],
        "command": " ".join(command) + " --workload W --seed N --seconds "
                   f"{seconds} --trace 0",
        "host": host(),
        "order": "alternating pairs, one seed per pair; within each "
                 "workload the side that runs first alternates from pair "
                 "to pair",
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        "claim": claim(summary, args.claim) if args.claim else None,
        "run_order": [list(x) for x in order],
        "runs": runs, "summary": summary}
    out = args.out or trees["change"] / f"BENCH_{shas['change']}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
