#!/usr/bin/env python3
"""Write the golden reports and series dumps to ``tests/data/golden/``.

    PYTHONPATH=src python3 scripts/golden_reports.py

Each file is the output of one command line of ``bfmix``:

* ``bfmix analyze`` JSON reports, without ``timing_seconds``, for the
  ``scripts/run_case_studies.py`` points, an index-2 point with two
  transverse modes, an index-4 point and an index-3/2 point that fails on
  its VE1 resonance coefficient;
* ``bfmix series --what wp|qbar|ve1|mu2|mu3`` CSVs for three points;
* ``case2_sweep.json``: 60 seeded random ``analyze case2`` points, ten at
  each Lame index 1, 2, 3, 4, 1/2 and 5/2 (five of each half-integer index
  on its survivor family), half with one transverse mode and half with two,
  each with its exit code, error text and report;
* ``verify_*.json``: ``bfmix verify`` at each ``--which``'s defaults, at one
  off-default point each, at a separatrix 10^-9 inside the curve
  27 C0^2 = 8 w0^3 and at a point beyond it, which has none, each with its
  exit code, error text and report;
* ``splitting_sweep_*.csv``: two ``bfmix sweep`` tables.

``tests/test_golden.py`` runs the same command lines and requires the output
to match these files byte for byte, so a change to the series kernel or the
variational pipeline that moves any digit shows.  The case-3 report holds
floats: a and h* come from a square root and Newton's method in float
arithmetic, and the amplitudes, zeros and slopes are closed forms in
floats, so the test compares them to 1e-15, and the rest of the report
exactly.  The ``verify`` residuals are exact, and compared byte for byte.
The ``sweep`` values are contour quadratures on a, so the test compares
them to ``FLOAT_REL_TOL`` relative plus ``FLOAT_ABS_TOL`` absolute, and
the sweep's t0 column exactly.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from bfmix import cli

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"


def _case2(gbf, omegaj, c0sq="1"):
    return ["analyze", "case2", f"--gbf={gbf}", "--omega0=1",
            f"--omegaj={omegaj}", f"--c0sq={c0sq}", "--h=0"]


#: file name -> bfmix command line
REPORTS = {
    "case1_nonintegrable.json": ["analyze", "case1", "--omega0=1",
                                 "--omega=2", "--gbf=1", "--csum=3"],
    "case1_separable.json": ["analyze", "case1", "--omega0=1", "--omega=2",
                             "--gbf=0", "--csum=3"],
    "case2_index1.json": _case2("1", "1"),
    "case2_index2_b0.json": _case2("3", "2"),
    "case2_index2_b1.json": _case2("3", "1"),
    "case2_index_half.json": _case2("3/8", "1/4"),
    "case2_index_three_half.json": _case2("15/8", "1"),
    "case2_nonlattice.json": _case2("1/3", "1"),
    "case2_index_five_half.json": _case2("35/8", "55/28", c0sq="72/343"),
    "case2_index2_b0_nf2.json": _case2("3", "2,2"),
    "case2_index3.json": _case2("6", "1"),
    "case2_index4.json": _case2("10", "1"),
    "case2_index_seven_sixths.json": _case2("91/72", "1"),
    "case3_splitting.json": ["analyze", "case3", "--omega0=1", "--omega1=1",
                             "--c0sq=1/100", "--c1sq=1", "--action=3.0"],
}

_SERIES_POINTS = {
    "index1": ["--gbf=1", "--omegaj=1", "--order=16"],
    "index2": ["--gbf=3", "--omegaj=1", "--order=24", "--pick-xi0=first",
               "--pick-xij=first"],
    "five_half_nf2": ["--gbf=35/8", "--omegaj=55/28,55/28", "--c0sq=72/343",
                      "--order=14"],
}

CSVS = {f"series_{what}_{point}.csv": ["series", f"--what={what}", *argv]
        for point, argv in _SERIES_POINTS.items()
        for what in ("wp", "qbar", "ve1", "mu2", "mu3")}


def _case2_sweep(seed: int = 2015, per_index: int = 10) -> list:
    """``analyze case2`` command lines at random rational w0, w_j, C0^2
    and h, ``per_index`` per Lame index n (g_bf = n(n+1)/2), N_f
    alternating between 1 and 2."""
    rng = random.Random(seed)

    def rat(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice((1, 2)))

    points = []
    for n in (Fraction(1), Fraction(2), Fraction(3), Fraction(4),
              Fraction(1, 2), Fraction(5, 2)):
        for k in range(per_index):
            omega0, c0sq = rat(1, 4), rat(1, 4)
            omegaj = [rat(1, 4) for _ in range(1 + k % 2)]
            if k >= per_index // 2 and n == Fraction(1, 2):
                omegaj = [omega0 / 4] * len(omegaj)
            elif k >= per_index // 2 and n == Fraction(5, 2):
                omegaj = [Fraction(55, 28) * omega0] * len(omegaj)
                c0sq = Fraction(72, 343) * omega0 ** 3
            points.append(["analyze", "case2", f"--gbf={n * (n + 1) / 2}",
                           f"--omega0={omega0}",
                           f"--omegaj={','.join(map(str, omegaj))}",
                           f"--c0sq={c0sq}", f"--h={rat(-2, 2)}"])
    return points


#: file name -> bfmix command lines whose outcomes the file lists together
SWEEPS = {"case2_sweep.json": _case2_sweep()}

#: file name -> ``bfmix verify`` command line, run to its exit code
VERIFY_RUNS = {
    "verify_prop1.json": ["verify", "--which=prop1"],
    "verify_prop2.json": ["verify", "--which=prop2"],
    "verify_separatrix.json": ["verify", "--which=separatrix"],
    "verify_prop1_two_modes.json": ["verify", "--which=prop1",
                                    "--omegaj=2,1/2", "--cj=1,3/4",
                                    "--hj=1/2,0"],
    "verify_prop2_two_modes.json": ["verify", "--which=prop2",
                                    "--omega0=3/2", "--omegaj=1,2",
                                    "--c0sq=1/2", "--h=1/3"],
    "verify_separatrix_off_default.json": ["verify", "--which=separatrix",
                                           "--omega0=2", "--c0sq=1/5"],
    "verify_separatrix_near_curve.json": [
        "verify", "--which=separatrix", "--c0sq=7999999992/27000000000"],
    "verify_separatrix_none.json": ["verify", "--which=separatrix",
                                    "--c0sq=1"],
}

#: file name -> ``bfmix sweep`` command line
SPLITTING_SWEEPS = {
    "splitting_sweep_default.csv": ["sweep", "--omega0=1", "--omega1=1",
                                    "--c0sq=1/100", "--c1sq=1",
                                    "--action=3"],
    "splitting_sweep_wide.csv": ["sweep", "--omega0=2", "--omega1=1/2",
                                 "--c0sq=1/5", "--c1sq=2", "--action=5",
                                 "--t0-min=-1", "--t0-max=2",
                                 "--t0-samples=17"],
}

#: tolerance on the floats of SPLITTING_SWEEPS: sweep values up to about
#: 1e2, whose last bits move with the platform's libm
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-11

#: files whose content comes from exact arithmetic only
EXACT_FILES = [name for name in (*REPORTS, *CSVS, *SWEEPS)
               if not name.startswith("case3")]
#: reports that carry floats (a, h*, closed forms), not exact values
QUADRATURE_FILES = [name for name in REPORTS if name.startswith("case3")]


def _run(argv) -> dict:
    """The exit code, error text and report (without ``timing_seconds``)
    of one command line.  A failed analysis writes no report; a failed
    ``verify`` writes one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    outcome = {"argv": list(argv), "exit": rc, "stderr": err.getvalue()}
    if out.getvalue():
        outcome["report"] = json.loads(out.getvalue())
        outcome["report"].pop("timing_seconds", None)
    return outcome


def render(name: str) -> str:
    """The golden text of one file, computed by the current program."""
    if name in SWEEPS:
        outcomes = [_run(argv) for argv in SWEEPS[name]]
        return json.dumps(outcomes, sort_keys=True, indent=1) + "\n"
    if name in VERIFY_RUNS:
        return json.dumps(_run(VERIFY_RUNS[name]), sort_keys=True,
                          indent=2) + "\n"
    argv = REPORTS.get(name) or CSVS.get(name) or SPLITTING_SWEEPS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"bfmix {' '.join(argv)} exited with {rc}")
    if name in CSVS or name in SPLITTING_SWEEPS:
        return buf.getvalue()
    report = json.loads(buf.getvalue())
    del report["timing_seconds"]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for name in (*REPORTS, *CSVS, *SWEEPS, *VERIFY_RUNS, *SPLITTING_SWEEPS):
        (OUT / name).write_text(render(name))
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
