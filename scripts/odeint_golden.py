#!/usr/bin/env python3
"""Write ``tests/data/odeint_bits.json``, the exact output of
``bfmix.odeint.integrate`` on a fixed set of segments.

    PYTHONPATH=src python3 scripts/odeint_golden.py

For each segment the file holds the number of right-hand-side calls, the
number of accepted nodes, and the ``repr`` of every node time and of each
component of the end state.  The segments are the Heun transform check and
the orbit integration at each of ``CASE1_POINTS`` (the fields that
``ode-crosscheck`` integrates), ``y' = 60 i y`` (a run with rejected steps)
and a four-component linear system at three tolerances.

``tests/test_odeint.py`` runs the same segments and requires the file back
exactly, so a change to the stepper that moves one bit of one node shows.
Regenerate it only for a change that is meant to move the arithmetic.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import numpy as np

from bfmix import heun, model, odeint

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "odeint_bits.json"

#: ode-crosscheck-like case-1 points (w0, omega, g, sum C_j, h1), with
#: 0 < h1 < omega |sum C_j|
CASE1_POINTS = [(Q(1), Q(2), Q(1), Q(3), Q(3)),
                (Q(2), Q(3, 2), Q(-1), Q(2), Q(3, 2)),
                (Q(1, 2), Q(5, 4), Q(3, 2), Q(-1), Q(5, 16))]

#: rates of the linear system y_i' = LINEAR_RATES[i] y_i
LINEAR_RATES = [-0.3 + 1.1j, 0.5 - 2j, 1j, -1 + 0.2j]


def case1_segments() -> list:
    """(f, t0, y0, t1, tolerances) of every integrate call that the Heun
    transform check and the orbit integration make at CASE1_POINTS, in
    call order: the Heun segment, then the orbit, of each point."""
    segments = []

    def spy(f, t0, y0, t1, **kw):
        segments.append((f, t0, np.array(y0), t1, kw))
        return odeint.integrate(f, t0, y0, t1, **kw)
    saved = heun.integrate, model.integrate
    heun.integrate = model.integrate = spy
    try:
        for w0, omega, g, csum, h1 in CASE1_POINTS:
            heun.transform_consistency(
                heun.reduce_case1(w0, omega, g, csum),
                np.linspace(0.1, 1.0, 10))
            p = model.make_params(w0, [omega ** 2 / 2], 0, [csum], g)
            model.integrate_orbit(p, model.solution_case1(p, [h1], 0, 0.2),
                                  1.2)
    finally:
        heun.integrate, model.integrate = saved
    return segments


def linear_field(t, y):
    return [a * v for a, v in zip(LINEAR_RATES, y)]


def segments() -> dict:
    """Segment name -> (f, t0, y0, t1, tolerances)."""
    out = {}
    for k, (heun_seg, orbit_seg) in enumerate(
            zip(*[iter(case1_segments())] * 2), start=1):
        out[f"heun_{k}"] = heun_seg
        out[f"orbit_{k}"] = orbit_seg
    out["oscillation"] = (lambda t, y: 60j * np.asarray(y), 0.0, [1.0], 1.0,
                          {"rtol": 1e-10, "atol": 1e-12})
    for rtol in (1e-6, 1e-10, 1e-12):
        out[f"linear_rtol{rtol:g}"] = (linear_field, 0.2 + 0.1j,
                                       [1, 0.5j, -2, 1 + 1j], 1.5 - 0.7j,
                                       {"rtol": rtol, "atol": rtol * 1e-2})
    return out


def record(f, t0, y0, t1, **kw) -> dict:
    """Right-hand-side calls, node count, node times and end state of one
    integrate call, the floats as their ``repr``."""
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        return f(t, y)
    y, traj = odeint.integrate(counted, t0, y0, t1, **kw)
    return {"rhs_calls": calls,
            "nodes": len(traj.times),
            "times": [repr(complex(t)) for t in traj.times],
            "end": [repr(complex(v)) for v in y]}


def render() -> str:
    records = {name: record(f, t0, y0, t1, **kw)
               for name, (f, t0, y0, t1, kw) in segments().items()}
    return json.dumps(records, indent=1) + "\n"


def main() -> int:
    OUT.write_text(render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
