"""Series helpers that only the tests use: the monomial and the variable t
as exact series, agreement of two series where both are known, and the
calculus oracles (derivative, primitive, float value), read off ``dense()``
and built by ``from_dense``."""
import math
from fractions import Fraction

from bfmix.series import INF, PuiseuxSeries


def monomial(c, e) -> PuiseuxSeries:
    """The exact series c * t**e."""
    return PuiseuxSeries({Fraction(e): c}, INF)


def variable() -> PuiseuxSeries:
    """The exact series t."""
    return monomial(1, 1)


def agrees_with(a: PuiseuxSeries, b: PuiseuxSeries) -> bool:
    """Equality of all coefficients below the common truncation order."""
    t = min(a.truncation_order, b.truncation_order)
    return ({e: c for e, c in a.terms() if e < t}
            == {e: c for e, c in b.terms() if e < t})


def differentiate(a: PuiseuxSeries) -> PuiseuxSeries:
    """The termwise derivative, exact one order below ``a``."""
    L, b, s, coeffs, den, trunc = a.dense()
    return PuiseuxSeries.from_dense(
        L, b - L, s, [c * (b + k * s) for k, c in enumerate(coeffs)],
        den * L, trunc - L)


def antiderivative(a: PuiseuxSeries):
    """``(primitive, log_coefficient)``: the termwise primitive with zero
    constants, and the 1/t coefficient, which integrates to a multiple of
    log t instead; so the truncation must lie above t^-1, or
    InsufficientOrderError is raised."""
    log_coefficient = a.coefficient(-1)
    L, b, s, coeffs, den, trunc = (a - monomial(log_coefficient, -1)).dense()
    # c_k / (e_k + 1) with e_k + 1 = m_k / L
    ms = range(b + L, b + L + len(coeffs) * s, s)
    m_lcm = math.lcm(*(m for m, c in zip(ms, coeffs) if c))
    primitive = PuiseuxSeries.from_dense(
        L, b + L, s, [c * (L * m_lcm // m) if c else 0
                      for m, c in zip(ms, coeffs)], den * m_lcm, trunc + L)
    return primitive, log_coefficient


def evaluate(a: PuiseuxSeries, t: complex) -> complex:
    """Floating-point value of the known terms at ``t``, fractional powers
    on the principal branch."""
    L, b, s, coeffs, den, _ = a.dense()
    t = complex(t)
    return sum((complex(c / den) * t ** ((b + k * s) / L)
                for k, c in enumerate(coeffs) if c), 0j)
