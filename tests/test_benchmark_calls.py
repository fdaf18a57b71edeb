"""The benchmark's calls into ``src/``, run on a few of its own points.

``perfbench/workloads.py`` calls ``bfmix.cli.main`` and, on
``ode-crosscheck``, the float oracles (``heun.transform_consistency``,
``model.integrate_orbit``, ``model.hamiltonian``,
``elliptic.wp_numeric_with_derivative``) and checks the reports' fields.
The module is loaded from its file and only read: this test fails where
``src/`` stops serving a name or an output the benchmark reads.
"""
import importlib.util
from pathlib import Path

import pytest

import bfmix
# run_point reads these modules as attributes of the package
from bfmix import cli, elliptic, heun, model

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_references_and_first_cycle_are_correct(workload):
    refs, cycles = workloads.generate(workload, 11, cycles=1)
    for point in refs + cycles[0]:
        result = workloads.run_point(point, bfmix)
        assert workloads.check_point(point, result) == [], point["argv"]
