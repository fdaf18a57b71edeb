"""Smoke runs of the scripts in ``scripts/``, at their default arguments
unless a test names others."""
import os
import subprocess
import sys
from pathlib import Path

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
