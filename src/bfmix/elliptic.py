"""Weierstrass elliptic data for the invariant-plane solution family.

The invariants come from the energy level of the one-degree subsystem:
``g2 = (16/3) w0^2 - 4 h`` and ``g3 = 4 C0^2 - (8/3) w0 h + (64/27) w0^3``;
the analysis needs a nondegenerate curve, so a vanishing discriminant is
rejected at construction time.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Tuple

from .series import PuiseuxSeries, append_rational, as_fraction


class DegenerateInvariantsError(ValueError):
    """g2^3 - 27 g3^2 = 0: the elliptic parametrization collapses."""


class NearPoleError(ValueError):
    """Numeric evaluation requested too close to a lattice point."""


@dataclass(frozen=True)
class EllipticData:
    g2: Fraction
    g3: Fraction
    discriminant: Fraction
    h: Fraction
    omega0: Fraction
    C0_sq: Fraction

    @cached_property
    def _wp_floats(self):
        """(base, step, cs, ds, tail) of ``wp_numeric_with_derivative``, read
        once per curve from the order-60 series (an integer order keeps the
        lattice ZZ): wp = sum_k cs[k] t^(base + k step), ds[k] = cs[k] times
        that exponent, and tail its last three (exponent, cs[k]) pairs."""
        _, base, step, coeffs, den, _ = wp_laurent(self, _SERIES_ORDER).dense()
        exps = range(base, base + len(coeffs) * step, step)
        cs = [c / den for c in coeffs]
        ds = [ex * c / den for ex, c in zip(exps, coeffs)]
        tail = [(ex, c) for ex, c in zip(exps, cs) if c][-3:]
        return base, step, cs, ds, tail


def invariants_from_energy(omega0, C0_sq, h) -> EllipticData:
    """The curve at energy h.  With w0 = a/b, C0^2 = c/d and h = p/q,

        g2 = (16 a^2 q - 12 b^2 p) / (3 b^2 q) = N2 / (3 b^2 q),
        g3 = (108 b^3 c q - 72 a b^2 d p + 64 a^3 d q) / (27 b^3 d q)
           = N3 / (27 b^3 d q),
        g2^3 - 27 g3^2 = (d^2 N2^3 - q N3^2) / (27 b^6 d^2 q^3),

    so each is one Fraction of integers."""
    omega0, C0_sq, h = as_fraction(omega0), as_fraction(C0_sq), as_fraction(h)
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    a, b = omega0.numerator, omega0.denominator
    c, d = C0_sq.numerator, C0_sq.denominator
    p, q = h.numerator, h.denominator
    b2q = b * b * q
    n2 = 16 * a * a * q - 12 * b * p * b
    n3 = 108 * b * b2q * c - 72 * a * b * b * d * p + 64 * a * a * a * d * q
    dn = d * d * n2 ** 3 - q * n3 * n3
    if dn == 0:
        raise DegenerateInvariantsError(
            f"discriminant vanishes for omega0={omega0}, C0_sq={C0_sq}, h={h}")
    return EllipticData(g2=Fraction(n2, 3 * b2q),
                        g3=Fraction(n3, 27 * b * b2q * d),
                        discriminant=Fraction(dn, 27 * b2q ** 3 * d * d),
                        h=h, omega0=omega0, C0_sq=C0_sq)


def wp_laurent(e: EllipticData, order) -> PuiseuxSeries:
    """Laurent expansion of wp at the origin, exact, truncated at t**order.

    1/t^2 + (g2/20) t^2 + (g3/28) t^4 + ..., even exponents only; the higher
    coefficients follow from matching wp'' = 6 wp^2 - g2/2 term by term.
    """
    order = as_fraction(order)
    on, od = order.numerator, order.denominator
    if on < 2 * od:
        raise ValueError("order must be at least 2")
    # numerators of a_1, a_2, ... over one denominator: a_m for 2m < order
    a: list = []
    den = 1
    for m in range(1, -(-on // (2 * od))):
        if m == 1:
            p, q = e.g2.numerator, 20 * e.g2.denominator
        elif m == 2:
            p, q = e.g3.numerator, 28 * e.g3.denominator
        else:
            s = sum(map(mul, a[:m - 2], a[m - 3::-1]))
            p, q = 6 * s, den * den * (4 * m * m - 2 * m - 12)
        den = append_rational(a, den, p, q)
    # exponents -2, 0, 2, 4, ...: 1/t^2, no constant, then a_1 t^2, ...
    return PuiseuxSeries.from_dense(od, -2 * od, 2 * od, [den, 0] + a, den, on)


_POLE_GUARD = 1e8
_SERIES_ORDER = 60


def _tail_ok(tail_terms, t: complex, value: complex) -> bool:
    """A-posteriori convergence test: the last stored terms of the series
    must be negligible against the summed value."""
    tail = sum(abs(c) * abs(t) ** float(ex) for ex, c in tail_terms)
    return tail <= 1e-14 * max(1.0, abs(value))


def _laurent_sum(cs, ds, base: int, step: int,
                 z: complex) -> Tuple[complex, complex]:
    """(wp(z), wp'(z)) from wp = z^base sum_k cs[k] w^k and
    wp' = z^(base - 1) sum_k ds[k] w^k, w = z^step, by Horner's rule."""
    w = z ** step
    p = dp = 0j
    for c, d in zip(reversed(cs), reversed(ds)):
        p = p * w + c
        dp = dp * w + d
    zb = z ** -base
    return p / zb, dp / (zb * z)


def wp_numeric_with_derivative(e: EllipticData,
                               t: complex) -> Tuple[complex, complex]:
    """(wp(t), wp'(t)): Laurent summation at z = t / 2^k, k the fewest
    halvings after which the series tail certifies convergence, then k steps
    of the duplication formulas (DLMF 23.10)

        wp(2z)  = r^2 / 4 - 2 wp,  with r = wp'' / wp',
        wp'(2z) = r (wp^(3) wp' - wp''^2) / (4 wp'^2) - wp',

    where wp'' = 6 wp^2 - g2/2 and wp^(3) = 12 wp wp'.  The exact series is
    read once per curve: each coefficient, and each times its exponent, is
    rounded once to a float."""
    t = complex(t)
    if t == 0:
        raise NearPoleError("wp has a pole at t = 0")
    if not cmath.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    base, step, cs, ds, tail = e._wp_floats
    z, k = t, 0
    wp, dwp = _laurent_sum(cs, ds, base, step, z)
    while not _tail_ok(tail, z, wp):
        z, k = z / 2, k + 1
        wp, dwp = _laurent_sum(cs, ds, base, step, z)
    if k == 0:
        return wp, dwp
    half_g2 = float(e.g2) / 2
    for _ in range(k):
        if dwp == 0:
            # wp' vanishes only at half-periods, so 2z is a lattice point
            raise NearPoleError(f"wp has a pole at t = {t}")
        d2 = 6 * wp * wp - half_g2
        r = d2 / dwp
        wp, dwp = (r * r / 4 - 2 * wp,
                   r * (12 * wp * dwp * dwp - d2 * d2) / (4 * dwp * dwp) - dwp)
    if abs(wp) > _POLE_GUARD:
        raise NearPoleError(f"wp overflow near t = {t}")
    return wp, dwp
