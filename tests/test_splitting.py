"""The case-3 verdict's closed sine form against the per-t0 contour oracle.

The verdict takes d(t0) = A sin(theta t0) with A from the residue calculus;
``helpers_contour.contour_oracle`` integrates the bracket at each t0
separately, checked at two radii, and stays the independent check.
"""
import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfmix import melnikov as M, model, verdict
from helpers_contour import contour_oracle

# the ranges of the case-3 benchmark points: w0, w1 in {1..4}/{1, 2},
# C0^2 in {1..5}/100, C1^2 in {1..3}/{1, 2, 4}, and the action a factor
# 1.25 to 3 above the oval threshold sqrt(2 w1 C1^2)
halves = st.builds(Q, st.integers(1, 4), st.sampled_from((1, 2)))
case3_points = st.tuples(
    halves, halves, st.builds(Q, st.integers(1, 5), st.just(100)),
    st.builds(Q, st.integers(1, 3), st.sampled_from((1, 2, 4))),
    st.floats(1.25, 3.0))


def _case3(omega0, omega1, c0sq, c1sq, action):
    """(setup, verdict) of one case-3 point."""
    return (M.setup(omega0, omega1, c0sq, c1sq, action),
            verdict.analyze_case3(omega0, omega1, c0sq, c1sq, action))


@given(case3_points)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sine_form_matches_contour_oracle(point):
    omega0, omega1, c0sq, c1sq, factor = point
    action = math.sqrt(2 * omega1 * c1sq) * factor
    try:
        s, v = _case3(omega0, omega1, c0sq, c1sq, action)
    except model.NoSeparatrixError:
        assume(False)
    assert v.outcome == "NonIntegrable"
    A = complex(*v.witness.data["fitted_amplitude"])
    assert A
    theta = 2 * math.sqrt(2 * float(omega1))
    for frac in (0.05, 0.2, 0.35, 0.6, 0.9):
        t0 = frac * 2 * math.pi / theta
        oracle = contour_oracle(s, t0)
        assert abs(A * math.sin(theta * t0) - oracle) <= 1e-9 * abs(A)
    zeros = v.witness.data["zeros"]
    want = [k * math.pi / theta for k in (1, 2)]
    assert len(zeros) == len(want)
    for (z, slope), zk in zip(zeros, want):
        assert abs(z - zk) <= 1e-12 * zk
        assert slope == pytest.approx(theta * abs(A), rel=1e-12)
        assert abs(contour_oracle(s, z)) <= 1e-9 * abs(A)


def test_degenerate_splitting_certifies_nothing():
    s0, v = _case3(1, 1, 0.01, 2, 2.0)     # I^2 = 2 w1 C1^2: amplitude 0
    assert s0.amplitude == 0
    assert v.outcome == "NecessaryConditionsSurvived"
    assert v.details["fit_residual"] == "inf"
    assert abs(M.melnikov_numeric(s0, 0.77)) < 1e-8


def test_oval_threshold_decided_exactly():
    # I = 1/10, w1 = 1/2, C1^2 = 1/100: I^2 = 2 w1 C1^2 as rationals, while
    # the float amplitude formula leaves about 3e-8 of round-off
    point = (1, Q(1, 2), Q(1, 100), Q(1, 100))
    assert M.setup(*point, Q(1, 10)).amplitude == 0
    with pytest.raises(M.InvalidActionError):
        M.setup(*point, Q(1, 10) - Q(1, 10 ** 30))
    assert M.setup(*point, Q(1, 10) + Q(1, 10 ** 30)).amplitude > 0
    with pytest.raises(ValueError):     # amplitude^2 ~ 2e-401 is 0.0 in floats
        M.setup(*point, Q(1, 10) + Q(1, 10 ** 400))
