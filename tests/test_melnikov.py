import math
from fractions import Fraction as Q

import numpy as np
import pytest

from bfmix import melnikov as M, verdict
from bfmix.model import separatrix_slope
from helpers_contour import contour_oracle, splitting_scale
from helpers_delta import (delta_closed_form, delta_derived,
                           delta_quadrature_check, inverse_p0_squared)


REF = dict(omega0=1, omega1=1, C0_sq=0.01, C1_sq=1, action_I=3.0)


@pytest.fixture(scope="module")
def s():
    return M.setup(REF["omega0"], REF["omega1"], REF["C0_sq"], REF["C1_sq"],
                   REF["action_I"])


@pytest.fixture(scope="module")
def A():
    """The splitting amplitude the case-3 verdict reports at REF."""
    v = verdict.analyze_case3(REF["omega0"], REF["omega1"], REF["C0_sq"],
                              REF["C1_sq"], REF["action_I"])
    return complex(*v.witness.data["fitted_amplitude"])


class TestSetup:
    def test_zero_c0_limit(self):
        s = M.setup(1, 1, 1e-12, 1, 3.0)
        assert s.h_star == pytest.approx(1.0, abs=1e-6)
        assert s.a == pytest.approx(1 / 3, abs=1e-6)

    def test_action_threshold(self):
        with pytest.raises(M.InvalidActionError):
            M.setup(1, 1, 0.01, 1, 1.0)     # needs I > sqrt(2)

    def test_boundary_action_amplitude(self):
        s = M.setup(1, 1, 0.01, 1, math.sqrt(2) + 1e-9)
        assert s.amplitude == pytest.approx(0.0, abs=1e-4)

    def test_cubic_root_certified(self, s):
        w0, c0sq = 1.0, 0.01
        val = (s.h_star ** 3 - w0 ** 2 * s.h_star ** 2
               - 9 * c0sq * w0 * s.h_star + 8 * c0sq * w0 ** 3
               + 6.75 * c0sq ** 2)
        assert abs(val) < 1e-12

    def test_radius_below_first_pole(self, s):
        assert s.contour_radius < math.pi / math.sqrt(3 * s.a)

    @pytest.mark.parametrize("omega1, radius", [
        (Q(1, 8), 0.5), (2, 0.5), (Q(9, 2), 1 / 3),
        (1000, 1 / math.sqrt(2000))])
    def test_radius_bounds_theta_r(self, omega1, radius):
        # theta = 2 sqrt(2 w1): r = 1/2 up to theta = 4, then 2/theta
        s = M.setup(1, omega1, Q(1, 100), 1, 4 * float(omega1) + 4)
        assert s.contour_radius == pytest.approx(radius, rel=1e-15)
        assert s.theta * s.contour_radius <= 2 + 1e-15


class TestBracket:
    def test_sin_zero_leaves_action_term(self, s):
        t = 0.37
        val = M.poisson_bracket_H0H1(s, t, math.cos(s.theta * t),
                                     math.sin(s.theta * t))
        udot = separatrix_slope(s.a, t)
        assert val == pytest.approx(udot * s.action_I / (2 * s.omega1))

    def test_odd_momentum_factor(self, s):
        # p0 q0 = u'/2 is odd; the action part of the bracket inherits it
        t = 0.4 + 0.1j
        assert (separatrix_slope(s.a, -t)
                == pytest.approx(-separatrix_slope(s.a, t)))
        action_part = lambda tt: (separatrix_slope(s.a, tt) * s.action_I
                                  / (2 * s.omega1))
        assert action_part(-t) == pytest.approx(-action_part(t))

    def test_exact_derivative_integrates_to_zero(self):
        # I^2 = 2 w1 C1^2 exactly: the integrand is a pure derivative and the
        # loop integral collapses to round-off
        s0 = M.setup(1, 1, 0.01, 2, 2.0)
        assert s0.amplitude == 0
        val = M.melnikov_numeric(s0, 0.77)
        assert abs(val) < 1e-8


class TestNumericIntegral:
    def test_zero_at_origin(self, s):
        assert abs(contour_oracle(s, 0.0)) < 1e-10 * splitting_scale(s)

    def test_radius_independence(self, s):
        d1 = M._contour_integral(s, 0.3, s.contour_radius, s.contour_points)
        d2 = M._contour_integral(s, 0.3, s.contour_radius / 2,
                                 2 * s.contour_points)
        assert abs(d1 - d2) <= 1e-6 * abs(d1)

    def test_sine_fit(self, s, A):
        # the reported A sin(theta t0) against the contour at both radii
        for t0 in np.linspace(0.0, 2 * math.pi / s.theta, 9):
            d = contour_oracle(s, t0)
            assert abs(A * math.sin(s.theta * t0) - d) < 1e-8 * abs(A)

    def test_fitted_amplitude_purely_imaginary(self, s, A):
        d = contour_oracle(s, math.pi / (2 * s.theta))
        assert abs(d.real) < 1e-8 * abs(A)
        assert A.real == 0

    def test_fitted_amplitude_matches_residue_calculus(self, s, A):
        # the residue calculus gives A; the contour measures d at the maximum
        d = contour_oracle(s, math.pi / (2 * s.theta))
        assert abs(A - d) < 1e-8 * abs(A)

    def test_quoted_prefactor_differs(self, s, A):
        # the verbatim closed form carries 12 pi a sqrt(2 w1); the measured
        # one is 16 pi w1; both share the sine structure and zeros
        quoted = M.melnikov_closed_form(s, math.pi / (2 * s.theta))
        assert quoted.imag == pytest.approx(12 * math.pi * s.a
                                            * math.sqrt(2 * s.omega1)
                                            * s.amplitude)
        assert abs(A.imag / quoted.imag - 1) > 0.1

    def test_phase_rounded_once_per_t0(self):
        # the sum reads sin(fl(theta t0)), as the closed form does; rounding
        # t - t0 at each node left it 6e-6 |A| off the sine form at w1 = 1e20
        s = M.setup(1, 10 ** 20, Q(1, 100), 1, 3 * 10 ** 20)
        A = M.predicted_amplitude(s)
        for t0 in np.linspace(0.0, 3.2, 33):
            d = M.melnikov_numeric(s, t0)
            assert abs(d - A * math.sin(s.theta * t0)) <= 1e-12 * abs(A)

    def test_antiperiodicity(self, s):
        half = math.pi / (2 * math.sqrt(2 * s.omega1))
        for t0 in (0.2, 0.45):
            d1 = M.melnikov_numeric(s, t0)
            d2 = M.melnikov_numeric(s, t0 + half)
            assert abs(d1 + d2) < 1e-8 * splitting_scale(s)


class TestClosedForm:
    def test_zero_at_origin(self, s):
        assert M.melnikov_closed_form(s, 0.0) == 0

    def test_sine_maximum(self, s):
        t0 = math.pi / (4 * math.sqrt(2 * s.omega1))
        val = M.melnikov_closed_form(s, t0)
        assert val == pytest.approx(12j * math.pi * s.a
                                    * math.sqrt(2 * s.omega1) * s.amplitude)

    def test_antiperiodicity(self, s):
        half = math.pi / (2 * math.sqrt(2 * s.omega1))
        assert M.melnikov_closed_form(s, 0.3 + half) == pytest.approx(
            -M.melnikov_closed_form(s, 0.3))


class TestZeros:
    def test_zero_locations_and_simplicity(self, s):
        zeros = M.find_simple_zeros(s)
        assert [round(z * s.theta / math.pi) for z, _ in zeros] == [1, 2]
        half = math.pi / (2 * math.sqrt(2 * s.omega1))
        for z, dmag in zeros:
            k = round(z / half)
            assert abs(z - k * half) < 1e-8
            assert dmag > 0

    def test_derivative_magnitude_from_fit(self, s):
        # each reported slope against a central difference of the contour
        zeros = M.find_simple_zeros(s)
        assert zeros
        h = 1e-4
        for z, dmag in zeros:
            slope = (contour_oracle(s, z + h)
                     - contour_oracle(s, z - h)) / (2 * h)
            assert dmag == pytest.approx(abs(slope), rel=1e-6)

    def test_numeric_and_closed_zeros_coincide(self, s):
        zeros = M.find_simple_zeros(s)
        assert zeros
        for z, _ in zeros:
            assert abs(M.melnikov_closed_form(s, z)) < 1e-7
            assert abs(contour_oracle(s, z)) < 1e-9 * splitting_scale(s)

    def test_degenerate_amplitude_reports_nothing(self):
        s0 = M.setup(1, 1, 0.01, 2, 2.0)
        assert M.find_simple_zeros(s0) == []

    @pytest.mark.parametrize("omega1", [1, 9000, 10 ** 6, 10 ** 40],
                             ids=["1", "9000", "1e6", "1e40"])
    def test_report_lists_one_period(self, omega1):
        # pi / theta and 2 pi / theta at every w1: no t0 window shifts them
        # past the first period or refuses a short one
        v = verdict.analyze_case3(1, omega1, Q(1, 100), 1, 3 * omega1)
        theta = 2 * math.sqrt(2 * omega1)
        assert v.outcome == "NonIntegrable"
        assert [z for z, _ in v.witness.data["zeros"]] == [
            math.pi / theta, 2 * (math.pi / theta)]


class TestDeltaQuadrature:
    def test_quoted_form_inconsistent(self, s):
        samples = np.linspace(0.5, 2.0, 7)
        defect = delta_quadrature_check(s, samples)
        assert defect > 1e-4          # the printed expression fails its job

    def test_derived_form_consistent(self, s):
        samples = np.linspace(0.5, 2.0, 7)
        defect = delta_quadrature_check(s, samples, form=delta_derived)
        assert defect < 1e-6

    def test_growth_rate_matches(self, s):
        # log-slope of both 1/p0^2 and the quoted form's derivative ~ 4 sqrt(3a)
        r = math.sqrt(3 * s.a)
        t1, t2 = 6.0, 8.0
        slope_target = (math.log(inverse_p0_squared(s, t2))
                        - math.log(inverse_p0_squared(s, t1))) / (t2 - t1)
        h = 1e-5
        d1 = (delta_closed_form(s, t1 + h) - delta_closed_form(s, t1 - h)) / (2 * h)
        d2 = (delta_closed_form(s, t2 + h) - delta_closed_form(s, t2 - h)) / (2 * h)
        slope_quoted = (math.log(d2) - math.log(d1)) / (t2 - t1)
        assert slope_target == pytest.approx(4 * r, rel=1e-3)
        assert slope_quoted == pytest.approx(4 * r, rel=1e-3)


class TestSweep:
    def test_csv_rows(self, s):
        rows = list(M.sweep_csv_rows(s, [0.0, 0.3]))
        assert len(rows) == 2
        parts = rows[1].split(",")
        assert len(parts) == 5
        assert float(parts[0]) == 0.3
