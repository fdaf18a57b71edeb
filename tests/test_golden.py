"""Regression against ``tests/data/golden/``.

The files are written by ``scripts/golden_reports.py``; regenerate them only
for a change that is meant to move a report or a series dump.  Exact outputs
must match byte for byte.  The case-3 report holds floats (h* from np.roots
and closed forms), so its numbers (JSON floats and float strings) must agree
to 1e-12 relative, with an absolute floor of 1e-12 for values at round-off
level; every other string, the verdict and the number of zeros must match
exactly.
"""
import importlib.util
import json
import math
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


def _assert_close(got, want, path="report"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float) or _is_float_text(want):
        assert math.isclose(float(got), float(want), rel_tol=1e-12,
                            abs_tol=1e-12), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("name", golden.QUADRATURE_FILES)
def test_float_report_matches_golden_file(name):
    _assert_close(json.loads(golden.render(name)),
                  json.loads((golden.OUT / name).read_text()))


def test_no_orphan_golden_file():
    named = {*golden.REPORTS, *golden.CSVS}
    assert {p.name for p in golden.OUT.iterdir()} == named
