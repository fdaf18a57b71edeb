from fractions import Fraction as Q

import numpy as np
import pytest

from bfmix import heun, model
from bfmix.model import PhaseState, make_params
from bfmix.odeint import integrate
from conftest import random_rational


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

    def test_r_of_x_pole_antisymmetry(self):
        red = heun.reduce_case1(1, 2, 1, 3)
        # coefficients at 1/x and 1/x^3 are opposite
        b = float(red.B)
        x = 0.37 + 0.21j
        val = red.r_of_x(x)
        rebuilt = -b / x - (float(red.A) + 0.25) / x ** 2 + b / x ** 3
        assert val == rebuilt

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

    def test_one_integrate_call_per_segment(self, monkeypatch):
        segments = []

        def counted(f, t0, y0, t1, **kw):
            segments.append((t0, t1))
            return integrate(f, t0, y0, t1, **kw)
        monkeypatch.setattr(heun, "integrate", counted)
        grid = np.linspace(0.1, 1.0, 10)
        heun.transform_consistency(heun.reduce_case1(1, 2, 1, 3), grid)
        assert segments == list(zip(grid[:-1], grid[1:]))

    def test_euler_exponents_at_b_zero(self):
        red = heun.reduce_case1(1, 2, 0, 3)
        assert heun.euler_exponent_check(red) < 1e-12
        with pytest.raises(ValueError):
            heun.euler_exponent_check(heun.reduce_case1(1, 2, 1, 3))


class TestNVEClosure:
    def test_no_coupling_into_tangent_block(self):
        """Along the q0 = p0 = 0 orbit the linearized dp0 row has no
        dependence on the transverse coordinates."""
        p = make_params(1, [2], 0, [1], Q(3, 5))
        s = model.solution_case1(p, [0], 0, 0.4 + 0.2j)
        h = 1e-6
        base = model.eom(p, s)
        bumped = model.eom(p, PhaseState(s.q0, s.p0,
                                         (s.qs[0] + h,), s.ps, s.t))
        assert abs(bumped.p0 - base.p0) / h < 1e-9
        assert abs(bumped.q0 - base.q0) / h < 1e-9
