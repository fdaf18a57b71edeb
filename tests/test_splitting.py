"""The vectorised splitting function against the per-t0 contour oracle.

``melnikov.splitting`` reads d(t0) = A sin(theta t0) off three moments of one
quadrature per radius; ``melnikov.melnikov_numeric`` integrates the bracket
at each t0 separately and stays the independent check.
"""
import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfmix import cli, melnikov as M, model

REF = (1, 1, 0.01, 1, 3.0)
MOMENTS = M._moments

# the ranges of the case-3 benchmark points: w0, w1 in {1..4}/{1, 2},
# C0^2 in {1..5}/100, C1^2 in {1..3}/{1, 2, 4}, and the action a factor
# 1.25 to 3 above the oval threshold sqrt(2 w1 C1^2)
halves = st.builds(Q, st.integers(1, 4), st.sampled_from((1, 2)))
case3_points = st.tuples(
    halves, halves, st.builds(Q, st.integers(1, 5), st.just(100)),
    st.builds(Q, st.integers(1, 3), st.sampled_from((1, 2, 4))),
    st.floats(1.25, 3.0))


def _setup(point):
    omega0, omega1, c0sq, c1sq, factor = point
    action = math.sqrt(2 * omega1 * c1sq) * factor
    try:
        return M.setup(omega0, omega1, c0sq, c1sq, action)
    except model.NoSeparatrixError:
        assume(False)


@given(case3_points)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sine_form_matches_contour_oracle(point):
    s = _setup(point)
    split = M.splitting(s)
    A = split.amplitude
    assert not split.degenerate
    assert split.residual < 1e-8
    theta = 2 * math.sqrt(2 * float(point[1]))
    for frac in (0.05, 0.2, 0.35, 0.6, 0.9):
        t0 = frac * 2 * math.pi / theta
        oracle = M.melnikov_numeric(s, t0)
        assert abs(A * math.sin(theta * t0) - oracle) <= 1e-9 * abs(A)
    t0_min = 0.01
    t0_max = t0_min + 1.05 * 2 * math.pi / theta
    zeros = M.find_simple_zeros(s, t0_min, t0_max, split)
    want = [k * math.pi / theta for k in range(1, 4)
            if t0_min <= k * math.pi / theta <= t0_max]
    assert len(zeros) == len(want) >= 2
    for (z, slope), zk in zip(zeros, want):
        assert abs(z - zk) <= 1e-12 * zk
        assert slope == pytest.approx(theta * abs(A), rel=1e-12)
        assert abs(M.melnikov_numeric(s, z)) <= 1e-9 * abs(A)


def _perturbed_moments(monkeypatch, which, size, radius_index=None):
    """Make ``_moments`` add ``size`` times |A| to its term ``which``
    (0 = constant, 1 = sine, 2 = cosine) on every radius or on one."""
    calls = []

    def perturbed(s, radius, points):
        m = list(MOMENTS(s, radius, points))
        if radius_index in (None, len(calls)):
            m[which] += size * abs(m[1])
        calls.append(radius)
        return tuple(m)
    monkeypatch.setattr(M, "_moments", perturbed)


@pytest.mark.parametrize("which", [0, 2])
def test_non_sine_moment_above_tolerance_raises(monkeypatch, which):
    s = M.setup(*REF)
    _perturbed_moments(monkeypatch, which, 1e-9)
    M.splitting(s)                       # below 1e-8 |A|: certified
    _perturbed_moments(monkeypatch, which, 1e-6)
    with pytest.raises(M.ContourUnreliableError):
        M.splitting(s)


def test_radius_disagreement_raises(monkeypatch):
    s = M.setup(*REF)
    _perturbed_moments(monkeypatch, 1, 1e-4, radius_index=1)
    with pytest.raises(M.ContourUnreliableError):
        M.splitting(s)


def test_uncertified_splitting_exits_3(monkeypatch, capsys):
    _perturbed_moments(monkeypatch, 2, 1e-6)
    assert cli.main(["analyze", "case3", "--omega0", "1", "--omega1", "1",
                     "--c0sq", "1/100", "--c1sq", "1",
                     "--action", "3.0"]) == 3
    assert "non-sine terms" in capsys.readouterr().err


def test_degenerate_splitting_certifies_nothing():
    s0 = M.setup(1, 1, 0.01, 2, 2.0)      # amplitude exactly 0
    split = M.splitting(s0)
    assert split.degenerate and split.amplitude == 0
    assert split.residual == math.inf
