import cmath
import dataclasses
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from bfmix import heun, model
from bfmix.model import PhaseState, make_params
from bfmix.odeint import integrate
from conftest import random_rational
import helpers_model
from helpers_heun import euler_exponent_check


class TestReduction:
    def test_reference_constants(self):
        red = heun.reduce_case1(1, 2, 1, 3)
        assert (red.A1, red.B1) == (Q(2), Q(-3))
        assert (red.A, red.B) == (Q(-1, 8), Q(3, 32))

    def test_b_closed_form(self, rng):
        for _ in range(20):
            w0 = abs(random_rational(rng, nonzero=True))
            w = abs(random_rational(rng, nonzero=True))
            g = random_rational(rng)
            csum = random_rational(rng, nonzero=True)
            red = heun.reduce_case1(w0, w, g, csum)
            assert red.B == g * csum / (4 * w ** 3)
            assert -red.B1 / (8 * w ** 2) == g * csum / (4 * w ** 3)

    def test_gbf_zero_gives_b_zero(self):
        assert heun.reduce_case1(1, 2, 0, 3).B == 0

    def test_b_zero_iff_gbf_zero(self, rng):
        for _ in range(20):
            g = random_rational(rng)
            red = heun.reduce_case1(1, Q(3, 2), g,
                                    random_rational(rng, nonzero=True))
            assert (red.B == 0) == (g == 0)

    def test_zero_csum_rejected(self):
        with pytest.raises(heun.AssumptionViolatedError):
            heun.reduce_case1(1, 2, 1, 0)

    def test_from_params_requires_equal_frequencies(self):
        p = make_params(1, [2, 3], 0, [1, 1], 1)
        with pytest.raises(heun.UnequalFrequenciesError):
            heun.reduce_from_params(p)

    def test_from_params(self):
        p = make_params(1, [2, 2], 0, [1, 2], 1)   # w_j = 2 -> omega = 2
        red = heun.reduce_from_params(p)
        assert red.omega == 2
        assert red.c_sum == 3
        assert red.B == Q(3, 32)


class TestTransformConsistency:
    def test_small_defect(self):
        red = heun.reduce_case1(1, 2, 1, 3)
        defect = heun.transform_consistency(red, np.linspace(0.1, 1.0, 10))
        assert defect < 1e-6

    def test_defect_decreases_with_tolerance(self):
        red = heun.reduce_case1(1, 2, 1, 3)
        loose = heun.transform_consistency(red, np.linspace(0.1, 1.0, 6),
                                           rtol=1e-6)
        tight = heun.transform_consistency(red, np.linspace(0.1, 1.0, 6),
                                           rtol=1e-12)
        assert tight < loose

    def test_one_recorded_integration_over_the_grid(self, monkeypatch):
        calls = []

        def spy(f, t0, y0, t1, **kw):
            out = integrate(f, t0, y0, t1, **kw)
            calls.append((t0, t1, kw, out[1]))
            return out
        monkeypatch.setattr(heun, "integrate", spy)
        red = heun.reduce_case1(1, 2, 1, 3)
        grid = np.linspace(0.1, 1.0, 10)
        defect = heun.transform_consistency(red, grid)
        [(t0, t1, kw, traj)] = calls
        assert (t0, t1) == (grid[0], grid[-1])
        assert kw == {"rtol": 1e-12 / math.sqrt(2),
                      "atol": 1e-14 / math.sqrt(2)}
        # the defect is read at every accepted node, not at the grid
        w = float(red.omega)
        at_nodes = [abs(cmath.exp(1j * w * t) * v[0] - v[2])
                    for t, v in zip(traj.times, traj.states)]
        assert len(at_nodes) > 2
        assert defect == max(at_nodes)
        assert heun.transform_consistency(red, [0.1, 1.0]) == defect

    def test_defect_sees_an_interior_node(self, monkeypatch):
        def corrupting(f, t0, y0, t1, **kw):
            y, traj = integrate(f, t0, y0, t1, **kw)
            traj.states[len(traj.states) // 2][2] += 1e-3
            return y, traj
        monkeypatch.setattr(heun, "integrate", corrupting)
        defect = heun.transform_consistency(heun.reduce_case1(1, 2, 1, 3),
                                            np.linspace(0.1, 1.0, 10))
        assert abs(defect - 1e-3) < 1e-9

    @pytest.mark.parametrize("g", [1, 0], ids=["B-nonzero", "B-zero"])
    def test_rhs_matches_the_unfolded_equations(self, monkeypatch, rng, g):
        fields = []

        def spy(f, t0, y0, t1, **kw):
            fields.append(f)
            return integrate(f, t0, y0, t1, **kw)
        monkeypatch.setattr(heun, "integrate", spy)
        red = heun.reduce_case1(Q(3, 2), Q(5, 4), g, Q(-2))
        assert (red.B == 0) == (g == 0)
        heun.transform_consistency(red, np.linspace(0.1, 1.0, 10))
        f, = fields
        w, a1, b1 = float(red.omega), float(red.A1), float(red.B1)
        # r(x) = -B/x - (A + 1/4)/x^2 + B/x^3, from A and B alone
        a_quarter, b_r = float(red.A) + 0.25, float(red.B)
        for t in np.linspace(0.1, 1.0, 20):
            v = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(4)]
            xi, dxi, y, dy = v
            x = cmath.exp(2j * w * t)
            r = -b_r / x - a_quarter / x ** 2 + b_r / x ** 3
            want = [dxi, -(a1 + b1 * cmath.sinh(2j * w * t)) * xi,
                    dy, 2j * w * dy + (2j * w * x) ** 2 * r * y]
            got = f(t, v)
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-14 * abs(b)

    def test_wrong_transform_is_caught(self):
        red = heun.reduce_case1(1, 2, 1, 3)
        # B off by 1/100 in r only: the Mathieu route keeps B1
        wrong = dataclasses.replace(red, B=red.B + Q(1, 100))
        assert heun.transform_consistency(wrong,
                                          np.linspace(0.1, 1.0, 10)) > 1e-6

    def test_euler_exponents_at_b_zero(self):
        red = heun.reduce_case1(1, 2, 0, 3)
        assert euler_exponent_check(red) < 1e-12
        with pytest.raises(ValueError):
            euler_exponent_check(heun.reduce_case1(1, 2, 1, 3))


class TestNVEClosure:
    def test_no_coupling_into_tangent_block(self):
        """Along the q0 = p0 = 0 orbit the linearized dp0 row has no
        dependence on the transverse coordinates."""
        p = make_params(1, [2], 0, [1], Q(3, 5))
        s = model.solution_case1(p, [0], 0, 0.4 + 0.2j)
        h = 1e-6
        base = helpers_model.eom(p, s)
        bumped = helpers_model.eom(p, PhaseState(s.q0, s.p0,
                                         (s.qs[0] + h,), s.ps, s.t))
        assert abs(bumped.p0 - base.p0) / h < 1e-9
        assert abs(bumped.q0 - base.q0) / h < 1e-9
