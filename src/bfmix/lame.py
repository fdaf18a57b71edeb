"""Lame-equation data and the necessary solvability conditions per block.

For each transverse block the coefficient of the normal variational equation
is ``alpha(t, h) = n(n+1) wp(t) + B_j``.  ``theorem5_check`` sorts the
point's blocks, which share one index n, by it; n = 0 (g_bf = 0) raises:

* integer n: the block passes, and the variational chain decides;
* half-odd-integer n = m - 1/2: the exponents -n and n + 1 differ by 2m, and
  the recursion of the solution at -n meets a resonance there whose
  right-hand side is the VE1 log coefficient.  The coefficient of t^(2k-2)
  in ``alpha`` has weight k in B_j, g2 (weight 2) and g3 (weight 3), and
  only g2 and g3 carry h, linearly; so the log coefficient is a polynomial of
  degree at most floor(m/2) in h, and floor(m/2) + 1 energies decide whether
  it vanishes for every h.  A nonzero value is an exact witness.  The
  energies are walked once for all blocks, and one q0^2 series per energy
  gives every block's coefficient; each block keeps its first nonzero one.  At
  n = -1/2 (g_bf = -1/8) the two exponents coincide, and the check raises:
  the double exponent is not decided;
* fractional Baldassarri indices: on this model the four branch residuals of
  ``alpha_dot^2 = P(alpha, h)`` reduce to 4 n(n+1), 64 w0^2, -32 w0 n(n+1)
  and -(1728 C0^2 + 1024 w0^3), none zero for w0 > 0: the block always fails
  with those rows (``tests/helpers_theorem5.py`` derives them from P);
* any other index fails.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from . import elliptic, variational
from .series import as_fraction, rational_sqrt

Q = Fraction


def lame_index(g_bf) -> Optional[Fraction]:
    """Rational n >= -1/2 with n(n+1) = 2 g_bf, or None.

    n and -1 - n give the same n(n+1); the root (sqrt(1 + 8 g_bf) - 1)/2 is
    the one of the pair that is at least -1/2, so an attractive coupling
    -1/8 <= g_bf < 0 has an index in [-1/2, 0).  Only indices with rational
    1 + 8 g_bf square root qualify; those are the ones the classification
    families speak about.
    """
    disc = 1 + 8 * Q(g_bf)
    if disc < 0:
        return None
    root = rational_sqrt(disc)
    return None if root is None else (root - 1) / 2


def lame_offset(omega0, omega_j, n) -> Fraction:
    """B_j = (2/3) w0 n(n+1) - 2 w_j: with w0 = a/b, w_j = c/d and n = p/q,
    (2 a d p (p + q) - 6 b c q^2) / (3 b d q^2)."""
    (a, b), (c, d), (p, q) = (as_fraction(omega0).as_integer_ratio(),
                              as_fraction(omega_j).as_integer_ratio(),
                              as_fraction(n).as_integer_ratio())
    return Fraction(2 * a * d * p * (p + q) - 6 * b * c * q * q,
                    3 * b * d * q * q)


# ---------------------------------------------------------------------------
# necessary-condition tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem5Verdict:
    passed_case: str                                  # case1|case2_1|...|none
    failed_conditions: Tuple[Tuple[str, Fraction], ...] = ()
    conjecture_conditional: bool = False
    notes: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.passed_case != "none"


def _is_baldassarri_index(n: Fraction) -> bool:
    """n + 1/2 lies on the lattice 1/3, 1/4 or 1/5 and is not an integer."""
    return (n + Q(1, 2)).denominator in (3, 4, 5)


def _curves(p, e: "elliptic.EllipticData",
            count: int) -> Iterator["elliptic.EllipticData"]:
    """``e``, then the curves of the energies e.h + 1, e.h + 2, ... that are
    not degenerate (the discriminant is a cubic in h): ``count`` in all."""
    yield e
    h = e.h
    count -= 1
    while count:
        h += 1
        try:
            e = elliptic.invariants_from_energy(p.omega0, p.C0_sq, h)
        except elliptic.DegenerateInvariantsError:
            continue
        yield e
        count -= 1


def theorem5_check(p, e: "elliptic.EllipticData",
                   n: Fraction) -> Tuple[Theorem5Verdict, ...]:
    """Evaluate the solvability necessary conditions for every normal block
    of the parameters ``p``, exactly: one verdict per block, in order.  ``n``
    is the Lame index ``lame_index(p.g_bf)``, and ``e`` the curve at the first
    energy a half-integer index is tried at."""
    if n == Q(-1, 2):
        raise ValueError("n = -1/2 (g_bf = -1/8): the exponents -n and n + 1 "
                         "at the pole coincide in the double exponent 1/2; "
                         "not decided")
    if n == 0:
        raise ValueError("n = 0 (g_bf = 0): the blocks decouple; no "
                         "condition applies")

    # condition 1: integer index
    if n.denominator == 1:
        return (Theorem5Verdict("case1"),) * p.n_f

    # condition 2: m = n + 1/2 a positive integer, log-free VE1 at every h
    m_frac = n + Q(1, 2)
    if m_frac.denominator == 1:
        m = int(m_frac)
        failed = [None] * p.n_f
        for e in _curves(p, e, m // 2 + 1):
            for j, r in enumerate(variational.resonance_coefficients(p, e, n)):
                if r and failed[j] is None:
                    failed[j] = (f"m={m}, normal_{j + 1}, h = {e.h}: "
                                 "resonance coefficient = 0", r)
            if all(failed):
                break
        passed = Theorem5Verdict(f"case2_{m}" if m <= 3 else "case2_m",
                                 conjecture_conditional=True)
        return tuple(Theorem5Verdict("none", (f,), True) if f else passed
                     for f in failed)

    # condition 3: Baldassarri-type fractional indices, in closed form
    if _is_baldassarri_index(n):
        nn, w0 = n * (n + 1), Q(p.omega0)
        return (Theorem5Verdict("none", (
            ("case3 branch a: c2 = 0", 4 * nn),
            ("case3 branch a: b1^2 - 3 a1 c1 = 0", 64 * w0 ** 2),
            ("case3 branch b: c2 b1 - 3 a1 d2 = 0", -32 * w0 * nn),
            ("case3 branch b: 2 b1^3 - 9 a1 b1 c1 + 27 a1^2 d1 = 0",
             -(1728 * Q(p.C0_sq) + 1024 * w0 ** 3)))),) * p.n_f

    return (Theorem5Verdict(
        "none", (("index in a solvable family", n),),
        notes=("index outside the integer, half-integer and fractional "
               "solvable families",)),) * p.n_f
