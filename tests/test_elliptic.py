import cmath
import random
import warnings
from fractions import Fraction as Q

import pytest

from bfmix import elliptic, odeint
from bfmix.series import PuiseuxSeries
from conftest import random_rational
from helpers_series import differentiate, evaluate


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

    def test_integers_equal_the_fraction_formulas(self):
        """g2, g3 and the discriminant, formed from integer numerators over
        one denominator each, equal the written-out Fraction expressions:
        seeded points with numerators and denominators up to 10^30, h of
        both signs, and C0^2 = 0 on a quarter of them."""
        rng = random.Random(20261020)
        signs = set()
        for i in range(400):
            top = 10 ** rng.choice((1, 3, 12, 30))
            w0 = Q(rng.randint(1, top), rng.randint(1, top))
            c0sq = Q(0) if i % 4 == 0 else Q(rng.randint(1, top),
                                               rng.randint(1, top))
            h = Q(rng.randint(-top, top), rng.randint(1, top))
            g2 = Q(16, 3) * w0 ** 2 - 4 * h
            g3 = 4 * c0sq - Q(8, 3) * w0 * h + Q(64, 27) * w0 ** 3
            disc = g2 ** 3 - 27 * g3 ** 2
            if disc == 0:
                with pytest.raises(elliptic.DegenerateInvariantsError):
                    elliptic.invariants_from_energy(w0, c0sq, h)
                continue
            e = elliptic.invariants_from_energy(w0, c0sq, h)
            assert (e.g2, e.g3, e.discriminant) == (g2, g3, disc)
            assert (e.h, e.omega0, e.C0_sq) == (h, w0, c0sq)
            assert all(type(v) is Q for v in (e.g2, e.g3, e.discriminant))
            signs.add((h < 0, c0sq == 0))
        assert len(signs) == 4

    def test_degenerate_curves_rejected_at_any_size(self):
        """g2 = 3u^2, g3 = u^3 has g2^3 = 27 g3^2: solve for h and C0^2 at
        seeded w0 and u, with numerators and denominators up to 10^30, and
        also at C0^2 = 0, h = 0 and h = w0^2."""
        rng = random.Random(20261020)
        points = []
        for _ in range(100):
            top = 10 ** rng.choice((1, 3, 12, 30))
            w0 = Q(rng.randint(1, top), rng.randint(1, top))
            u = Q(rng.randint(-top, top), rng.randint(1, top))
            h = (Q(16, 3) * w0 ** 2 - 3 * u * u) / 4
            c0sq = (u ** 3 + Q(8, 3) * w0 * h - Q(64, 27) * w0 ** 3) / 4
            points += [(w0, c0sq, h), (w0, Q(0), Q(0)), (w0, Q(0), w0 ** 2)]
        for w0, c0sq, h in points:
            with pytest.raises(elliptic.DegenerateInvariantsError,
                               match="discriminant vanishes"):
                elliptic.invariants_from_energy(w0, c0sq, h)


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
            wpp = differentiate(wp)
            first = (wpp * wpp - (wp * wp * wp).scale(4)
                     + wp.scale(g2) + PuiseuxSeries.constant(g3))
            assert not first
            second = (differentiate(differentiate(wp))
                      - (wp * wp).scale(6) + PuiseuxSeries.constant(g2 / 2))
            assert not second

    @pytest.mark.parametrize("order", [2, Q(5, 2), 7, 60, Q(61, 2),
                                       Q(121, 2)])
    def test_matches_the_fraction_recursion(self, order):
        """wp's terms below t^order equal DLMF 23.9.7 run in Fractions:
        c_2 = g2/20, c_3 = g3/28, c_k = 3 sum_{m=2}^{k-2} c_m c_(k-m) /
        ((2k + 1)(k - 3)), the coefficient of t^(2k - 2)."""
        for w0, c0sq, h in ((1, 1, 0), (Q(3, 2), 0, Q(-7, 5)),
                            (Q(10 ** 30 + 1, 7), Q(2, 10 ** 29 + 3), -5)):
            e = elliptic.invariants_from_energy(w0, c0sq, h)
            c = {}
            k = 2
            while 2 * k - 2 < order:
                if k == 2:
                    c[k] = e.g2 / 20
                elif k == 3:
                    c[k] = e.g3 / 28
                else:
                    c[k] = Q(3, (2 * k + 1) * (k - 3)) * sum(
                        c[m] * c[k - m] for m in range(2, k - 1))
                k += 1
            want = {Q(-2): 1, **{Q(2 * k - 2): v for k, v in c.items() if v}}
            wp = elliptic.wp_laurent(e, order)
            assert dict(wp.terms()) == want
            assert wp.truncation_order == order

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
            direct = evaluate(series, tval)
            assert abs(elliptic.wp_numeric_with_derivative(self.e, tval)[0]
                       - direct) <= 1e-10 * max(1, abs(direct))

    def test_pole_at_origin(self):
        with pytest.raises(elliptic.NearPoleError):
            elliptic.wp_numeric_with_derivative(self.e, 0)


def _laurent_radius(series) -> float:
    """Root-test estimate of the convergence radius from the exponents 160
    and up, whose coefficients grow like (2m+1) R^-(2m+2)."""
    return min((abs(float(c)) / (ex + 1)) ** (-1 / float(ex + 2))
               for ex, c in series.terms() if ex >= 160 and c)


def _halvings(e, t) -> int:
    """Halvings the evaluation needs before its order-60 tail certifies."""
    series = elliptic.wp_laurent(e, 60)
    tail = [(ex, float(c)) for ex, c in list(series.terms())[-3:]]
    k = 0
    while not elliptic._tail_ok(tail, t / 2 ** k,
                                evaluate(series, t / 2 ** k)):
        k += 1
    return k


def _cubic_residual(e, wp, wpp) -> float:
    """|wp'^2 - (4 wp^3 - g2 wp - g3)|, relative to the cubic above 1."""
    cubic = 4 * wp ** 3 - float(e.g2) * wp - float(e.g3)
    return abs(wpp ** 2 - cubic) / max(1.0, abs(cubic))


CURVES = [(1, 1, 0), (2, Q(3, 10), -1), (3, 2, 1)]


class TestContinuation:
    """Points beyond the disc where the order-60 Laurent sum certifies
    itself, reached by halving into it and doubling back."""

    @pytest.mark.parametrize("curve", CURVES,
                             ids=lambda c: ",".join(map(str, c)))
    @pytest.mark.parametrize("frac", [0.6, 0.7, 0.8])
    @pytest.mark.parametrize("direction", [1, 0.8 + 0.6j], ids=["real", "complex"])
    def test_matches_order_200_laurent_sum(self, curve, frac, direction):
        e = elliptic.invariants_from_energy(*curve)
        exact = elliptic.wp_laurent(e, 200)
        t = frac * _laurent_radius(exact) * direction
        assert _halvings(e, t) >= 1
        wp, wpp = elliptic.wp_numeric_with_derivative(e, t)
        want, want_d = evaluate(exact, t), evaluate(differentiate(exact), t)
        assert abs(wp - want) <= 1e-12 * abs(want)
        assert abs(wpp - want_d) <= 1e-12 * abs(want_d)

    @pytest.mark.parametrize("curve, t", [
        ((1, 1, 0), 3.1 + 0.5j), ((2, Q(3, 10), -1), 1.9), ((3, 2, 1), 2.2 - 0.7j)])
    def test_cubic_residual_beyond_first_period(self, curve, t):
        e = elliptic.invariants_from_energy(*curve)
        assert abs(t) > _laurent_radius(elliptic.wp_laurent(e, 200))
        wp, wpp = elliptic.wp_numeric_with_derivative(e, t)
        assert _cubic_residual(e, wp, wpp) < 1e-12


class TestLatticePoint:
    """The real lattice point 2w of (w0, C0^2, h) = (2, 3/10, -1), near 1.5."""

    def setup_method(self):
        self.e = elliptic.invariants_from_energy(2, Q(3, 10), -1)
        # Newton on wp^(-1/2), which has a simple zero at 2w; at t = 1.5,
        # wp is about 2e6, so one step leaves an error of order 1e-15
        wp, wpp = elliptic.wp_numeric_with_derivative(self.e, 1.5)
        self.lattice = 1.5 + 2 * wp / wpp

    def test_located(self):
        assert abs(self.lattice - 1.5007054) < 1e-7
        wp, _ = elliptic.wp_numeric_with_derivative(self.e, self.lattice + 1e-3)
        assert abs(wp - 1e6) < 1e-9 * 1e6

    @pytest.mark.parametrize("offset", [0, 1e-7, -1e-6, 3e-6j,
                                        9e-6 * (0.6 + 0.8j), -1e-5])
    def test_near_pole_error_within_1e_5(self, offset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(elliptic.NearPoleError):
                elliptic.wp_numeric_with_derivative(self.e,
                                                    self.lattice + offset)

    def test_zero_derivative_while_doubling_is_a_pole(self, monkeypatch):
        # wp' vanishes only at a half-period, which no float t hits exactly;
        # a Laurent sum whose derivative is zero stands in for one
        laurent_sum = elliptic._laurent_sum
        monkeypatch.setattr(elliptic, "_laurent_sum",
                            lambda *args: (laurent_sum(*args)[0], 0j))
        with pytest.raises(elliptic.NearPoleError):
            elliptic.wp_numeric_with_derivative(self.e, 1.4)

    @pytest.mark.parametrize("offset", [1e-3, -1e-3, 1e-3j])
    def test_finite_at_1e_3(self, offset):
        wp, wpp = elliptic.wp_numeric_with_derivative(self.e,
                                                      self.lattice + offset)
        assert cmath.isfinite(wp) and cmath.isfinite(wpp)
        assert _cubic_residual(self.e, wp, wpp) < 1e-8

    @pytest.mark.parametrize("z", [0.3, 0.4 + 0.2j])
    def test_periodic_across_the_lattice_point(self, z):
        near = elliptic.wp_numeric_with_derivative(self.e, z)
        far = elliptic.wp_numeric_with_derivative(self.e, z + self.lattice)
        for a, b in zip(near, far):
            assert abs(a - b) < 1e-12 * abs(a)


class TestStructure:
    def test_no_ode_in_elliptic(self, monkeypatch):
        for name in ("integrate", "_wp_ode", "SEED_RADIUS", "ODE_RTOL"):
            assert not hasattr(elliptic, name)
        calls = []
        monkeypatch.setattr(odeint, "integrate",
                            lambda *a, **k: calls.append(a))
        e = elliptic.invariants_from_energy(1, 1, 0)
        for t in (0.3, 1.4, 3.1 + 0.5j):
            elliptic.wp_numeric_with_derivative(e, t)
        assert calls == []

    @pytest.mark.parametrize("t", [float("nan"), complex("inf"),
                                   complex(1, float("nan"))], ids=str)
    def test_non_finite_t_rejected(self, t):
        e = elliptic.invariants_from_energy(1, 1, 0)
        with pytest.raises(ValueError, match="finite"):
            elliptic.wp_numeric_with_derivative(e, t)
