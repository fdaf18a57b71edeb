"""Regression against ``tests/data/golden/``.

The files are written by ``scripts/golden_reports.py``; regenerate them only
for a change that is meant to move a report or a series dump.  Exact outputs
must match byte for byte.  The case-3 report holds floats: a few float
operations on exact inputs, a square root and Newton's method for ``a``.
They must agree to 1e-15 relative, so a zero must stay exactly zero; every
other string, the verdict and the number of zeros must match exactly.  The
``verify`` runs are exact and must match byte for byte.  The ``sweep``
values must agree to ``golden.FLOAT_REL_TOL`` relative plus
``golden.FLOAT_ABS_TOL`` absolute, and their t0 column exactly.
"""
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "golden_reports", ROOT / "scripts" / "golden_reports.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", golden.EXACT_FILES)
def test_output_matches_golden_file(name):
    assert golden.render(name) == (golden.OUT / name).read_text()


def _is_float_text(value) -> bool:
    # "3.0" and "1.23e-16" are float reprs; "1/100" is an exact rational
    if not isinstance(value, str):
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


def _assert_close(got, want, path="report", rel_tol=1e-15):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}", rel_tol)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]", rel_tol)
    elif isinstance(want, float) or _is_float_text(want):
        assert math.isclose(float(got), float(want), rel_tol=rel_tol), \
            (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("name", golden.QUADRATURE_FILES)
def test_float_report_matches_golden_file(name):
    _assert_close(json.loads(golden.render(name)),
                  json.loads((golden.OUT / name).read_text()))


def _assert_float_close(got: str, want: str, where):
    assert math.isclose(float(got), float(want), rel_tol=golden.FLOAT_REL_TOL,
                        abs_tol=golden.FLOAT_ABS_TOL), (where, got, want)


@pytest.mark.parametrize("name", golden.VERIFY_RUNS)
def test_verify_run_matches_golden_file(name):
    assert golden.render(name) == (golden.OUT / name).read_text()


@pytest.mark.parametrize("name", golden.SPLITTING_SWEEPS)
def test_splitting_sweep_matches_golden_file(name):
    got = golden.render(name).splitlines()
    want = (golden.OUT / name).read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        (g_t0, *g_d), (w_t0, *w_d) = g.split(","), w.split(",")
        assert g_t0 == w_t0 and len(g_d) == len(w_d)
        for gd, wd in zip(g_d, w_d):
            _assert_float_close(gd, wd, f"d at t0 = {w_t0}")


def _params_blocks(node):
    if isinstance(node, dict):
        if isinstance(node.get("params"), dict):
            yield node["params"]
        for value in node.values():
            yield from _params_blocks(value)
    elif isinstance(node, list):
        for value in node:
            yield from _params_blocks(value)


def test_golden_c0_squares_to_c0_sq():
    """Where a golden report names "C0", its square is the "C0_sq" beside
    it."""
    blocks = [params for path in sorted(golden.OUT.glob("*.json"))
              for params in _params_blocks(json.loads(path.read_text()))
              if "C0" in params]
    assert len(blocks) > 20
    for params in blocks:
        assert Fraction(params["C0"]) ** 2 == Fraction(params["C0_sq"])


def test_no_orphan_golden_file():
    named = {*golden.REPORTS, *golden.CSVS, *golden.SWEEPS,
             *golden.VERIFY_RUNS, *golden.SPLITTING_SWEEPS}
    assert {p.name for p in golden.OUT.iterdir()} == named
