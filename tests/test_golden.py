"""Byte-for-byte regression against ``tests/data/golden/``.

The files are written by ``scripts/golden_reports.py``; regenerate them only
for a change that is meant to move a report or a series dump.
"""
import importlib.util
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
