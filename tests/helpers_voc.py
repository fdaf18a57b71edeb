"""The product form of variation of constants, the oracle that
``variational.variation_of_constants`` replaced: four series products, two
primitives with zero constants, a negation and a sum."""
from bfmix.variational import FrobeniusBasis, VOCResult


def product_voc(basis: FrobeniusBasis, forcing) -> VOCResult:
    """(the 1/t coefficients of -sol2*K and sol1*K, and
    sol1*int(-sol2*K) + sol2*int(sol1*K) with zero integration constants,
    log terms dropped).  The particular is returned whatever the rows."""
    c1, log1 = (-(basis.sol2 * forcing)).antiderivative()
    c2, log2 = (basis.sol1 * forcing).antiderivative()
    return VOCResult((log1, log2), basis.sol1 * c1 + basis.sol2 * c2)
