"""Smoke runs of the scripts in ``scripts/``, at their default arguments
unless a test names others."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_case_studies():
    lines = run_script("run_case_studies.py")
    i = lines.index("== case2 index 5/2 surviving triple")
    assert lines[i + 1].split()[:2] == ["outcome:", "NecessaryConditionsSurvived"]
    i = lines.index("== case2 index 3 (g=6, w_j=w0)")
    assert lines[i + 1].split()[:4] == ["outcome:", "NonIntegrable",
                                        "witness:", "ve_residue"]


def test_residue_survey():
    lines = run_script("residue_survey.py")
    # first pick row: pick_xi0, pick_xij, then the normal block's row-1 residue
    assert lines[2].split()[:3] == ["first", "first", "2/3"]


def test_residue_survey_first_order_log():
    # n = 1/2 with B_j != 0: the VE1 basis itself needs log t
    lines = run_script("residue_survey.py", "--gbf", "3/8", "--omegaj", "1")
    assert lines[2] == ("logarithm already at first order: right-hand side "
                        "-3/2 at the resonance t^3/2")


def test_residue_survey_order_from_the_exponents():
    # index 7 needs order 27, above any fixed default a survey could pick
    lines = run_script("residue_survey.py", "--gbf", "28")
    assert lines[2].split()[:3] == ["first", "first",
                                    "975979660090476416/9037274526905625"]


def test_residue_survey_no_lame_index():
    lines = run_script("residue_survey.py", "--gbf", "1/3")
    assert lines[2:] == ["2 g_bf = 2/3 is n(n+1) for no rational n: "
                         "no Lame index"]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(points_per_s, p50_ms):
    return {"attempted": 100, "correct": True, "failed": 0,
            "metrics": {"points_per_s": points_per_s,
                        "point_p50_ms": p50_ms}}


def test_bench_pairs_plan_alternates_and_counts_seeds():
    order = _bench_pairs().plan(["a", "b"], 3, 4001)
    assert order == [("a", 4001, "parent"), ("a", 4001, "change"),
                     ("a", 4002, "change"), ("a", 4002, "parent"),
                     ("a", 4003, "parent"), ("a", 4003, "change"),
                     ("b", 4004, "parent"), ("b", 4004, "change"),
                     ("b", 4005, "change"), ("b", 4005, "parent"),
                     ("b", 4006, "parent"), ("b", 4006, "change")]


def test_bench_pairs_summary_on_canned_runs():
    """Medians, exclusive quartiles, wins, the signed worse fraction and
    the claim test, on five canned pairs: points_per_s is higher-better,
    point_p50_ms lower-better."""
    bp = _bench_pairs()
    parent = [(100, 10.0), (104, 9.0), (98, 11.0), (102, 10.5), (101, 9.5)]
    change = [(110, 9.0), (103, 9.5), (111, 9.6), (112, 8.0), (109, 9.4)]
    runs = {side: {"w": {str(4001 + k): _run(*v) for k, v in enumerate(vals)}}
            for side, vals in (("parent", parent), ("change", change))}
    end_to_end = [{"name": "points_per_s", "better": "higher", "bound": 0.24},
                  {"name": "point_p50_ms", "better": "lower", "bound": 0.24}]
    summary = bp.summarize(runs, end_to_end)["w"]
    pps = summary["points_per_s"]
    assert pps == {"bound": 0.24, "pairs": 5, "change_wins": 4,
                   "parent_median": 101, "change_median": 110,
                   "parent_quartiles": [99.0, 101.0, 103.0],
                   "change_quartiles": [106.0, 110.0, 111.5],
                   "median_change_pct": 8.91, "worse_frac": -0.0891}
    p50 = summary["point_p50_ms"]
    assert (p50["change_wins"], p50["parent_median"], p50["change_median"],
            p50["worse_frac"]) == (4, 10.0, 9.4, -0.06)
    c = bp.claim({"w": summary}, "w")
    # 4 wins in 5 pairs is short of 9 in 10, though the gap of 9 exceeds
    # the parent's interquartile range of 4
    assert (c["change_wins"], c["parent_iqr"], c["median_gain"],
            c["met"]) == (4, 4.0, 9, False)
    runs["change"]["w"]["4002"] = _run(105, 8.5)
    c = bp.claim({"w": bp.summarize(runs, end_to_end)["w"]}, "w")
    assert (c["change_wins"], c["met"]) == (5, True)
    assert summary["correctness"] == {
        side: {"incorrect_runs": 0, "failed_points": 0}
        for side in ("parent", "change")}


@pytest.mark.parametrize("side, fault", [
    ("change", {"correct": False}), ("parent", {"correct": False}),
    ("change", {"failed": 3}), ("parent", {"failed": 1})],
    ids=["change-incorrect", "parent-incorrect", "change-failed",
         "parent-failed"])
def test_bench_pairs_claim_needs_correct_runs(side, fault):
    """A gain that would be met is not met once one run on either side is
    incorrect or has failed points; the summary counts both."""
    bp = _bench_pairs()
    parent = [(100, 10.0), (104, 9.0), (98, 11.0), (102, 10.5), (101, 9.5)]
    change = [(110, 9.0), (105, 8.5), (111, 9.6), (112, 8.0), (109, 9.4)]
    runs = {s: {"w": {str(4001 + k): _run(*v) for k, v in enumerate(vals)}}
            for s, vals in (("parent", parent), ("change", change))}
    end_to_end = [{"name": "points_per_s", "better": "higher", "bound": 0.24}]
    assert bp.claim(bp.summarize(runs, end_to_end), "w")["met"]
    runs[side]["w"]["4003"].update(fault)
    summary = bp.summarize(runs, end_to_end)
    assert summary["w"]["correctness"][side] == {
        "incorrect_runs": int("correct" in fault),
        "failed_points": fault.get("failed", 0)}
    c = bp.claim(summary, "w")
    assert (c["change_wins"], c["met"]) == (5, False)


def test_bench_pairs_help_runs_no_benchmark():
    lines = run_script("bench_pairs.py", "--help")
    assert lines[0].startswith("usage: bench_pairs.py")


def test_bench_pairs_process_plan_and_env(tmp_path):
    """--process alternates the first tree per setting and line; the
    compiled setting writes no bytecode, the cached one writes it only
    under the prefix, and each tree imports its own src."""
    bp = _bench_pairs()
    order = bp.process_plan(["a", "b"], 2)
    assert order == [
        (s, line, side) for s in ("compiled", "cached") for line in "ab"
        for side in ("parent", "change", "change", "parent")]
    compiled = bp.process_env(tmp_path, "compiled", tmp_path / "pyc")
    cached = bp.process_env(tmp_path, "cached", tmp_path / "pyc")
    assert compiled["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in compiled
    assert cached["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pyc")
    assert "PYTHONDONTWRITEBYTECODE" not in cached
    assert compiled["PYTHONPATH"] == cached["PYTHONPATH"] == \
        str(tmp_path / "src")
    assert set(bp.PROCESS_LINES) == {"case1", "case2", "case3"}


def test_bench_pairs_process_summary_on_canned_runs():
    """Medians, exclusive quartiles and wins of canned wall times, where
    lower is better."""
    bp = _bench_pairs()
    parent = [110.0, 112.0, 108.0, 111.0, 109.0]
    change = [105.0, 113.0, 104.0, 106.0, 107.0]
    runs = {"parent": {"cached": {"case3": parent}},
            "change": {"cached": {"case3": change}}}
    assert bp.process_summary(runs) == {"cached": {"case3": {
        "pairs": 5, "change_wins": 4,
        "parent_median_ms": 110.0, "change_median_ms": 106.0,
        "parent_quartiles_ms": [108.5, 110.0, 111.5],
        "change_quartiles_ms": [104.5, 106.0, 110.0],
        "median_change_pct": -3.64}}}


def test_bench_pairs_process_refuses_a_claim():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--process", "--parent", ".", "--change", ".", "--parent-sha", "a",
         "--change-sha", "b", "--claim", "case2-survivors"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "--process takes no --claim" in proc.stderr
