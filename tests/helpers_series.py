"""Series helpers that only the tests use: the monomial and the variable t
as exact series, and agreement of two series where both are known."""
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
