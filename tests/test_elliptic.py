from fractions import Fraction as Q

import pytest

from bfmix import elliptic
from bfmix.series import PuiseuxSeries
from conftest import random_rational


class TestInvariants:
    def test_reference_point(self):
        e = elliptic.invariants_from_energy(1, 1, 0)
        assert e.g2 == Q(16, 3)
        assert e.g3 == Q(172, 27)
        assert e.discriminant == -944

    def test_degenerate_rejected(self):
        with pytest.raises(elliptic.DegenerateInvariantsError):
            elliptic.invariants_from_energy(1, 0, 0)

    def test_h_linearity(self, rng):
        for _ in range(10):
            w0 = abs(random_rational(rng, nonzero=True))
            c0 = random_rational(rng)
            try:
                e1 = elliptic.invariants_from_energy(w0, c0 * c0, 1)
                e0 = elliptic.invariants_from_energy(w0, c0 * c0, 0)
            except elliptic.DegenerateInvariantsError:
                continue
            assert e1.g2 - e0.g2 == -4

    def test_positive_frequency_required(self):
        with pytest.raises(ValueError):
            elliptic.invariants_from_energy(0, 1, 0)


class TestLaurent:
    def test_zero_invariants(self):
        e = elliptic.EllipticData(Q(0), Q(0), Q(1), Q(0), Q(1), Q(0))
        wp = elliptic.wp_laurent(e, 12)
        assert wp.coefficient(-2) == 1
        assert all(c == 0 for ex, c in wp.terms() if ex != -2)

    def test_leading_coefficients(self):
        e = elliptic.invariants_from_energy(1, 1, 0)
        wp = elliptic.wp_laurent(e, 8)
        assert wp.coefficient(2) == Q(4, 15)       # g2/20
        assert wp.coefficient(4) == Q(43, 189)     # g3/28

    def test_t6_coefficient_is_g2_sq_over_1200(self, rng):
        for _ in range(5):
            g2 = random_rational(rng, nonzero=True)
            g3 = random_rational(rng)
            if g2 ** 3 - 27 * g3 ** 2 == 0:
                continue
            e = elliptic.EllipticData(g2, g3, g2 ** 3 - 27 * g3 ** 2,
                                      Q(0), Q(1), Q(0))
            wp = elliptic.wp_laurent(e, 8)
            assert wp.coefficient(6) == g2 * g2 / 1200

    def test_ode_identities_as_series(self, rng):
        for _ in range(5):
            g2 = random_rational(rng)
            g3 = random_rational(rng)
            if g2 ** 3 - 27 * g3 ** 2 == 0:
                continue
            e = elliptic.EllipticData(g2, g3, Q(1), Q(0), Q(1), Q(0))
            wp = elliptic.wp_laurent(e, 20)
            wpp = wp.differentiate()
            first = (wpp * wpp - (wp * wp * wp).scale(4)
                     + wp.scale(g2) + PuiseuxSeries.constant(g3))
            assert first.is_zero
            second = (wp.differentiate().differentiate()
                      - (wp * wp).scale(6) + PuiseuxSeries.constant(g2 / 2))
            assert second.is_zero

    def test_order_validation(self):
        e = elliptic.invariants_from_energy(1, 1, 0)
        with pytest.raises(ValueError):
            elliptic.wp_laurent(e, 1)


class TestNumeric:
    def setup_method(self):
        self.e = elliptic.invariants_from_energy(1, 1, 0)

    def test_pole_dominance(self):
        val = elliptic.wp_numeric_with_derivative(self.e, 0.01)[0]
        assert abs(val - 1e4) / 1e4 < 1e-3

    def test_ode_residual(self):
        wp, wpp = elliptic.wp_numeric_with_derivative(self.e, 0.3)
        g2, g3 = float(self.e.g2), float(self.e.g3)
        assert abs(wpp ** 2 - (4 * wp ** 3 - g2 * wp - g3)) < 1e-8

    def test_evenness(self):
        z = 0.2 + 0.1j
        assert abs(elliptic.wp_numeric_with_derivative(self.e, z)[0]
                   - elliptic.wp_numeric_with_derivative(self.e, -z)[0]) < 1e-9

    def test_series_agreement_inside_half_radius(self):
        series = elliptic.wp_laurent(self.e, 40)
        for tval in (0.025, 0.02 + 0.01j):
            direct = series.evaluate(tval)
            assert abs(elliptic.wp_numeric_with_derivative(self.e, tval)[0]
                       - direct) <= 1e-10 * max(1, abs(direct))

    def test_pole_at_origin(self):
        with pytest.raises(elliptic.NearPoleError):
            elliptic.wp_numeric_with_derivative(self.e, 0)
