"""Variational equations along the elliptic invariant-plane solution.

Builds the first variational equation (one tangential block plus one Lame
block per transverse mode), solves each block by Frobenius series with unit
Wronskian, assembles the order-2 and order-3 forcings, and extracts the
logarithm-detecting residues exactly.

One recursion loop (``_recursion``) solves xi'' = q xi + K term by term,
for the bases (K = 0) and for the VE2 blocks.  A logarithm shows as a
nonzero right-hand side where the recursion meets a resonance, an indicial
exponent: at first order the one at rho1 (FirstOrderLogError), at second
order both, which are the VE2 rows.  The free coefficients of a VE2
particular at the resonances are fixed by its Wronskian pairings with sol1
and sol2, whose t^0 terms they clear: the zero-integration-constant
particular of variation of constants, without its series products.

The order-k forcing is the k-th Taylor term of the field F along the orbit
(Morales-Ruiz, Ramis and Simo, Ann. Sci. ENS 40, 2007): K^(2) =
1/2 D^2F[x, x] and K^(3) = D^2F[x, y] + 1/6 D^3F[x, x, x] for the first-
and second-order solutions x and y.  The q0-equation's 2 q0^3 + C0^2 q0^-3
enters through its Taylor coefficients c2 = 6 q0 + 6 C0^2 q0^-5 and
c3 = 2 - 10 C0^2 q0^-6 (``OrbitFactors``), the couplings 2g q0 sum q_j^2
and 2g q0^2 q_j through 2g and 4g q0.

Sign conventions.  The Lame offset is ``B_j = (2/3) w0 n(n+1) - 2 w_j`` and
blocks read ``xi'' = [n(n+1) wp + B_j] xi``; the basis is ``sol1`` monic at
the singular exponent -n and ``sol2 = t^(n+1)/(2n+1) (1 + ...)``, which makes
the Wronskian sol1*sol2' - sol1'*sol2 exactly one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from . import elliptic
from .series import (INF, FieldExtensionError, InsufficientOrderError,
                     PuiseuxSeries, append_rational)

Q = Fraction
#: the coefficient 0 of a row or a right-hand side the recursion does not
#: meet
_ZERO = Q(0)


class IrregularSingularityError(Exception):
    """Coefficient series has a pole of order > 2 at t = 0."""


class FirstOrderLogError(ValueError):
    """A VE1 basis needs log t: the recursion at the smaller exponent meets a
    nonzero right-hand side ``coefficient`` at the larger one."""

    def __init__(self, coefficient: Fraction, exponent: Fraction):
        super().__init__(f"logarithm already at first order: right-hand "
                         f"side {coefficient} at the resonance t^{exponent}")
        self.coefficient = coefficient


@dataclass(frozen=True)
class VE1Coefficients:
    """Coefficient functions of the first variational equation.

    tangential: T(t) = -2 w0 + 6 qbar0^2 - 3 C0^2 / qbar0^4 (leading 6/t^2)
    normal[j]:  N_j(t) = -2 w_j + 2 g qbar0^2 (leading n(n+1)/t^2 when
                2 g = n(n+1))
    """

    tangential: PuiseuxSeries
    normal: Tuple[PuiseuxSeries, ...]
    qbar0: PuiseuxSeries


def _qbar0_squared(e: "elliptic.EllipticData", order) -> PuiseuxSeries:
    """q0^2 = wp + (2/3) w0, exact below t^order."""
    return (elliptic.wp_laurent(e, Q(order))
            + PuiseuxSeries.constant(Q(2, 3) * e.omega0))


def qbar0_series(e: "elliptic.EllipticData", order) -> PuiseuxSeries:
    """Local branch q0(t) = 1/t + (w0/3) t + ... of sqrt((2/3) w0 + wp)."""
    return _qbar0_squared(e, order).sqrt()


def _normal_coefficient(qsq: PuiseuxSeries, g, omega_j) -> PuiseuxSeries:
    """N_j = -2 w_j + 2 g q0^2 from the series ``qsq`` of q0^2."""
    return PuiseuxSeries.constant(-2 * Q(omega_j)) + qsq.scale(2 * Q(g))


def build_ve1(p, e: "elliptic.EllipticData", order) -> VE1Coefficients:
    """Exact VE1 coefficient series at truncation exponent ``order`` P.

    q0^2 is built exact below t^max(P, 2) (``wp_laurent`` takes no order
    below 2), and below t^P it suffices: its leading term is 1/t^2, so its
    relative precision is P + 2, which ``sqrt`` and ``invert`` keep.  So q0
    is exact below t^(P+1) and q0^-4 below t^(P+6), and every VE1
    coefficient is exact below t^P, where it is cut.  An order below -2,
    the leading exponent of every VE1 coefficient, raises
    InsufficientOrderError.
    """
    order = Q(order)
    if order < -2:
        raise InsufficientOrderError(
            f"VE1 starts at t^-2, above the truncation t^{order}")
    qsq = _qbar0_squared(e, max(order, 2))
    qbar = qsq.sqrt()
    tang = (PuiseuxSeries.constant(-2 * Q(p.omega0))
            + qsq.scale(6)
            - (qsq * qsq).invert().scale(3 * Q(e.C0_sq)))
    normal = tuple(_normal_coefficient(qsq, p.g_bf, wj) for wj in p.omegas)
    return VE1Coefficients(tangential=tang.truncate(order),
                           normal=tuple(nj.truncate(order) for nj in normal),
                           qbar0=qbar.truncate(order))


@dataclass(frozen=True)
class FrobeniusBasis:
    """Two Frobenius solutions of xi'' = q(t) xi with unit Wronskian: sol1
    monic at the smaller exponent rho2, sol2 with leading coefficient
    1/(rho1 - rho2) at rho1.  ``q`` is the coefficient series they solve,
    whose recursion ``variation_of_constants`` runs with a forcing."""

    sol1: PuiseuxSeries
    sol2: PuiseuxSeries
    exponents: Tuple[Fraction, Fraction]   # (rho1, rho2), rho1 > rho2
    q: PuiseuxSeries


def _indicial_roots(c2_num: int, c2_den: int) -> Tuple[Fraction, Fraction]:
    """(rho1, rho2) = (1 +- sqrt(1 + 4 c2)) / 2 for c2 = c2_num / c2_den,
    c2_den > 0, with the root taken in integers."""
    dn, dd = c2_den + 4 * c2_num, c2_den
    g = math.gcd(dn, dd)
    dn, dd = dn // g, dd // g
    if dn < 0:
        raise FieldExtensionError(
            f"complex indicial exponents (1+4c = {Fraction(dn, dd)})")
    rn, rd = math.isqrt(dn), math.isqrt(dd)
    if rn * rn != dn or rd * rd != dd:
        raise FieldExtensionError(
            f"irrational indicial exponents (1+4c = {Fraction(dn, dd)})")
    return Fraction(rd + rn, 2 * rd), Fraction(rd - rn, 2 * rd)


def _clearing_coefficient(s: PuiseuxSeries, ys: Sequence[int], den: int,
                          S: int, h: int, M: int, E: int) -> Tuple[int, int]:
    """(p, q) with y_e = p/q the coefficient at e = E/M that clears the t^0
    term of the pairing s y' - s' y, which is sum_e (2e - 1) y_e s_(1-e),
    for y = sum_k ys[k]/den t^((S + k h)/M) below e; M is a multiple of
    s's lattice and s starts at t^(1-e)."""
    Ls, bs, ss, cs, _, _ = s.dense()
    f = M // Ls
    bs, ss = bs * f, ss * f
    total = 0
    for y in ys:
        if y:
            i, r = divmod(M - S - bs, ss)
            if not r and 0 <= i < len(cs):
                total += (2 * S - M) * y * cs[i]
        S += h
    return -total, den * (2 * E - M) * cs[0]


def _recursion(q: PuiseuxSeries, start: Optional[Fraction],
               forcing: Optional[PuiseuxSeries], free: Sequence[tuple]
               ) -> Tuple[PuiseuxSeries, list]:
    """The series y from t^start (t^(v(K) + 2) for None) that solves
    y'' = q y + K term by term, K = ``forcing`` (0 for None), and the
    right-hand sides delta_e it meets at the resonances.

    y_e (e(e-1) - c2) = K_(e-2) + sum_(j>0) q_j y_(e-j), where q_j is the
    coefficient of t^(j-2) and c2 = q_0.  At a root e of the bracket, y_e
    multiplies zero: the loop records the right-hand side delta_e and sets
    y_e by the pair (e, v) of ``free`` that names e: y_e = v for a number
    v, or the y_e that clears the t^0 term of v y' - v' y for a series v.
    y then solves y'' = q y + K - sum_e delta_e t^(e-2).  The deltas come
    back as Fractions in the order of ``free``, 0 for a root not met.

    Exponents are integers E = e*M on the lattice 1/M; y lives on
    start + (h/M) ZZ, the coarsest step that carries q's terms above t^-2
    and K's terms, and y_k, q_j and K_k are integer numerators over one
    denominator each.  y_e reads q up to t^(e - start - 2) and K up to
    t^(e - 2), so y is exact below min(t_K + 2, start + t_q + 2), where it
    is cut.
    """
    L, b, s, coeffs, q_den, t = q.dense()
    if t + 2 * L <= 0:
        raise InsufficientOrderError(
            f"coefficient of t^-2 unknown (truncation t^{q.truncation_order})")
    if forcing is None:
        LK, k_den = 1, 1
    else:
        LK, bK, sK, k_coeffs, k_den, tK = forcing.dense()
    M = math.lcm(L, LK, *(e.denominator for e, _ in free))
    fq = M // L
    lo = (b + 2 * L) * fq             # q's first term, above t^-2
    h = math.gcd(s * fq, lo)
    span = (t + 2 * L) * fq           # y is exact below start + span
    if forcing is None:
        S = start.numerator * (M // start.denominator)
    else:
        fK = M // LK
        S = (bK + 2 * LK) * fK
        h = math.gcd(h, sK * fK)
        if tK * fK + 2 * M < S + span:
            span = tK * fK + 2 * M - S
    n = -(-span // h)                 # lattice points below start + span
    # q_j (j > 0) and K_k over the denominator D of both
    D = q_den * k_den
    qs = [0] * n
    r, j0 = s * fq // h, lo // h
    part = coeffs[:len(range(j0, n, r))]
    qs[j0:j0 + len(part) * r:r] = [x * k_den for x in part]
    M2 = M * M
    c2 = qs[0] * M2
    qs[0] = 0
    ks = [0] * n
    if forcing is not None:
        r = sK * fK // h
        part = k_coeffs[:len(range(0, n, r))]
        ks[:len(part) * r:r] = [x * q_den for x in part]
    roots = [e.numerator * (M // e.denominator) for e, _ in free]
    deltas = [_ZERO] * len(free)
    ys, den = [], 1
    E = S
    for k in range(n):
        rhs = ks[k] * den + sum(map(mul, ys, qs[k:0:-1]))
        bracket = D * E * (E - M) - c2          # D M^2 (e(e-1) - c2)
        if bracket:
            den = append_rational(ys, den, rhs * M2, den * bracket)
        else:
            i = roots.index(E)
            if rhs:
                deltas[i] = Fraction(rhs, den * D)
            v = free[i][1]
            if isinstance(v, PuiseuxSeries):
                den = append_rational(ys, den, *_clearing_coefficient(
                    v, ys, den, S, h, M, E))
            else:
                den = append_rational(ys, den, v, 1)
        E += h
    return PuiseuxSeries.from_dense(M, S, h, ys, den, S + span), deltas


def _frobenius_one(q: PuiseuxSeries, rho: Fraction,
                   other: Fraction) -> Tuple[PuiseuxSeries, Fraction]:
    """Monic series solution at exponent rho, and the right-hand side its
    recursion meets at the exponent ``other`` (0 when it meets none): the
    recursion without forcing, with y_rho = 1 and y_other = 0.  Every
    coefficient it returns is exact; stopping short of a resonance on q's
    lattice leaves the log test undecided and raises
    InsufficientOrderError."""
    L, t = q.dense()[::5]
    M = math.lcm(L, rho.denominator, other.denominator)
    R = rho.numerator * (M // rho.denominator)
    OM = other.numerator * (M // other.denominator)
    trunc = R + (t + 2 * L) * (M // L)
    if trunc <= OM and (OM - R) % (M // L) == 0:
        raise InsufficientOrderError(
            f"resonance at t^{other} lies beyond the exact terms (below "
            f"t^{Fraction(trunc, M)}) of the solution at t^{rho}")
    sol, (_, rhs) = _recursion(q, rho, None, ((rho, 1), (other, 0)))
    return sol, rhs


def resonance_coefficients(p, e: "elliptic.EllipticData",
                           n: Fraction) -> Tuple[Fraction, ...]:
    """The coefficient ``frobenius`` raises FirstOrderLogError with (0 for
    none) in each normal block of a half-integer Lame index n = m - 1/2,
    without VE1: the exponents -n and n + 1 differ by 2m, so N_j exact below
    t^(2m) decides it, and one q0^2 serves every block."""
    qsq = _qbar0_squared(e, 2 * n + 1)
    return tuple(_frobenius_one(_normal_coefficient(qsq, p.g_bf, wj),
                                -n, n + 1)[1] for wj in p.omegas)


def frobenius(q: PuiseuxSeries) -> FrobeniusBasis:
    """Solve xi'' = q(t) xi locally at the regular singular point t = 0.

    ``q`` must be truncated: the bases are exact below the order its
    truncation certifies, t^(rho + t_q + 2) for the solution at rho.  A
    resonance with a nonzero right-hand side raises FirstOrderLogError, and
    a double exponent raises ValueError.

    The Wronskian sol1*sol2' - sol1'*sol2 is one by construction: the
    equation has no xi' term, so it is constant (Abel), and its leading term
    is t^(rho1 + rho2 - 1) (rho1 - rho2)/(rho1 - rho2) = 1, because the
    indicial roots sum to 1."""
    L, b, _, coeffs, den, t = q.dense()
    if t == INF:
        raise ValueError("frobenius needs a truncated coefficient series")
    if (b if coeffs else t) < -2 * L:
        raise IrregularSingularityError(
            f"pole of order {-q.base_exponent} > 2 at t = 0")
    # a pole of order at most 2: c2 is the leading coefficient or zero
    rho1, rho2 = _indicial_roots(coeffs[0] if b == -2 * L else 0, den)
    if rho1 == rho2:
        raise ValueError(f"double indicial exponent {rho1}: the second "
                         "solution carries a logarithm")
    sol1, resonance_rhs = _frobenius_one(q, rho2, rho1)
    if resonance_rhs:
        raise FirstOrderLogError(resonance_rhs, rho1)
    # the recursion at rho1 climbs away from rho2, so it meets no resonance
    sol2_monic, _ = _frobenius_one(q, rho1, rho2)
    # rho1 - rho2 = 2 rho1 - 1, as rho1 + rho2 = 1
    sol2 = sol2_monic.scale(Fraction(rho1.denominator,
                                     2 * rho1.numerator - rho1.denominator))
    return FrobeniusBasis(sol1=sol1, sol2=sol2, exponents=(rho1, rho2), q=q)


class VOCResult(NamedTuple):
    """Variation-of-constants data for one block xi'' = q xi + K.

    ``log_coefficients`` are the 1/t coefficients of the rows -sol2*K and
    sol1*K of X^{-1} (0, K)^T; a nonzero one puts log t into the block
    solution.  ``particular`` is the log-free solution whose Wronskian
    pairings sol1 y' - sol1' y and sol2 y' - sol2' y (the primitives of
    sol1*K and -sol2*K) have no t^0 term: sol1*int(-sol2*K) +
    sol2*int(sol1*K) with zero integration constants.  It is None where a
    row is nonzero, as no log-free solution exists there.
    """

    log_coefficients: Tuple[Fraction, Fraction]
    particular: Optional[PuiseuxSeries]


def variation_of_constants(basis: FrobeniusBasis,
                           forcing: PuiseuxSeries) -> VOCResult:
    """Solve xi'' = q xi + K, K = ``forcing``, by the basis's recursion run
    from t^(v(K) + 2) with K added, without forming sol1*K or sol2*K.

    The rows are the right-hand sides delta the recursion meets at the
    resonances: the recursion solves xi'' = q xi + K - sum delta_e t^(e-2),
    so for each basis solution s the derivative (s xi' - s' xi)' =
    s (K - sum delta_e t^(e-2)) has no 1/t term, and
    res(s K) = delta_rho2 s_rho1 + delta_rho1 s_rho2, which gives
    (-res(sol2 K), res(sol1 K)) = (-delta_rho2 / (rho1 - rho2),
    delta_rho1), as sol1 = t^rho2 + ... has no t^rho1 term and
    sol2 = t^rho1 / (rho1 - rho2) + ....  The free coefficients
    xi_rho2 and xi_rho1 clear the t^0 terms of the pairings
    sol2 xi' - sol2' xi and sol1 xi' - sol1' xi, one convolution sum over
    the terms below each: the zero-constant particular, exact below
    min(t_K + 2, v(K) + t_q + 4).  Where that bound lies at or below
    t^rho1, the 1/t coefficient of sol1*K is unknown and
    InsufficientOrderError is raised.
    """
    rho1, rho2 = basis.exponents
    if forcing:
        y, (d2, d1) = _recursion(basis.q, None, forcing,
                                 ((rho2, basis.sol2), (rho1, basis.sol1)))
    else:
        y, d2, d1 = PuiseuxSeries({}, forcing.truncation_order + 2), 0, 0
    L, t = y.dense()[::5]
    if t * rho1.denominator <= rho1.numerator * L:
        raise InsufficientOrderError(
            f"log coefficient unknowable: the particular is exact below "
            f"t^{y.truncation_order}, at or below the resonance t^{rho1}")
    if d2 or d1:
        return VOCResult((-d2 / (rho1 - rho2), d1), None)
    return VOCResult((_ZERO, _ZERO), y)


# ---------------------------------------------------------------------------
# forcing terms of the second and third variational equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitFactors:
    """The orbit coefficients of the forcings: ``c2`` = 6 q0 + 6 C0^2 q0^-5
    and ``c3`` = -10 C0^2 q0^-6, the C0^2 part of 2 - 10 C0^2 q0^-6 (None
    where C0^2 = 0), beside ``two_g`` = 2g and ``four_g_qbar`` = 4g q0.  At
    C0^2 = 0, c2 keeps its zero q0^-5 term, which bounds its truncation as
    every term of a sum does.  Only ``*``, ``+``, ``-``, ``scale`` and
    ``invert`` build them and the forcings, so chain_order runs the same
    code on valuations.

    ``pick_terms`` caches the forcing terms of each first-order pick
    (``_tangential_terms``, ``_normal_terms``), so the picks of one context
    share them.  It lives and dies with this object.
    """

    two_g: Fraction
    qbar: PuiseuxSeries
    four_g_qbar: PuiseuxSeries
    c2: PuiseuxSeries
    c3: Optional[PuiseuxSeries]
    pick_terms: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, qbar: PuiseuxSeries, g, C0_sq) -> "OrbitFactors":
        """The coefficients along the orbit series ``qbar``, with a fresh
        cache."""
        g, C0_sq = Q(g), Q(C0_sq)
        qbar_inv = qbar.invert()
        qbar_inv2 = qbar_inv * qbar_inv
        qbar_inv5 = qbar_inv * (qbar_inv2 * qbar_inv2)
        return cls(2 * g, qbar, qbar.scale(4 * g),
                   qbar.scale(6) + qbar_inv5.scale(6 * C0_sq),
                   (qbar_inv5 * qbar_inv).scale(-10 * C0_sq) if C0_sq
                   else None)


def _tangential_terms(orbit: OrbitFactors, x) -> tuple:
    """(c2 x^2, 2 c2 x, c3 x^3, 2g x^2, 4g q0 x) for the tangential pick x,
    built once per context; c3 x^3 is 2 x^3 plus ``orbit.c3`` x^3."""
    key = ("xi0", x)
    terms = orbit.pick_terms.get(key)
    if terms is None:
        sq = x * x
        cube = sq * x
        c2x = orbit.c2 * x
        c3_cube = cube.scale(2)
        if orbit.c3 is not None:
            c3_cube = c3_cube + orbit.c3 * cube
        terms = orbit.pick_terms[key] = (c2x * x, c2x.scale(2), c3_cube,
                                         sq.scale(orbit.two_g),
                                         orbit.four_g_qbar * x)
    return terms


def _normal_terms(orbit: OrbitFactors, xs: Sequence) -> tuple:
    """(2g q0 sum x_j^2, 2g sum x_j^2, [4g q0 x_j]) for the normal pick
    (x_j), built once per context."""
    key = ("xij", tuple(xs))
    terms = orbit.pick_terms.get(key)
    if terms is None:
        sum_sq = functools.reduce(add, (xj * xj for xj in xs))
        sum_sq_2g = sum_sq.scale(orbit.two_g)
        terms = orbit.pick_terms[key] = (
            orbit.qbar * sum_sq_2g, sum_sq_2g,
            [orbit.four_g_qbar * xj for xj in xs])
    return terms


def forcing_k2(orbit: OrbitFactors, xi0_1, xij_1: Sequence):
    """(K0^(2), [K_j^(2)]) = 1/2 D^2F[x, x] along the orbit for the
    first-order solution choices x = (x0, x_j):

        K0^(2) = c2 x0^2 + 2g q0 sum x_j^2,
        K_j^(2) = 4g q0 x0 x_j."""
    c2_sq = _tangential_terms(orbit, xi0_1)[0]
    q_sum_sq, _, q_xj = _normal_terms(orbit, xij_1)
    return c2_sq + q_sum_sq, [xi0_1 * qx for qx in q_xj]


def forcing_k3(orbit: OrbitFactors, xi0_1, xij_1: Sequence, xi0_2,
               xij_2: Sequence):
    """(K0^(3), [K_j^(3)]) = D^2F[x, y] + 1/6 D^3F[x, x, x] along the orbit
    for the first- and second-order solution choices x = (x0, x_j) and
    y = (y0, y_j):

        K0^(3) = 2 c2 x0 y0 + c3 x0^3 + 4g q0 sum x_j y_j + 2g x0 sum x_j^2,
        K_j^(3) = 4g q0 (x0 y_j + y0 x_j) + 2g x0^2 x_j."""
    _, c2x_2, c3_cube, sq_2g, qx0 = _tangential_terms(orbit, xi0_1)
    _, sum_sq_2g, q_xj = _normal_terms(orbit, xij_1)
    cross = functools.reduce(add, map(mul, q_xj, xij_2))
    k0 = c2x_2 * xi0_2 + c3_cube + cross + xi0_1 * sum_sq_2g
    kj = [qx0 * yj + xi0_2 * qx + sq_2g * xj
          for xj, yj, qx in zip(xij_1, xij_2, q_xj)]
    return k0, kj


# ---------------------------------------------------------------------------
# higher-VE pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HigherVEChoice:
    """First-order solution picks feeding the order-2 and order-3 forcings.

    'first' selects the singular basis solution, 'second' the regular one.
    The order-3 forcing takes the zero-constant order-2 particulars: a
    homogeneous order-2 addition changes the VE3 rows only through the VE2
    ones, so it drops out wherever the chain reaches VE3.
    """

    pick_xi0: str = "second"
    pick_xij: str = "first"

    def __post_init__(self):
        for v in (self.pick_xi0, self.pick_xij):
            if v not in ("first", "second"):
                raise ValueError(f"pick must be 'first' or 'second', got {v!r}")


#: choices that the residue computations for a Lame index are quoted under,
#: where they differ from the default ``HigherVEChoice()``
STANDARD_CHOICES: Dict[Fraction, HigherVEChoice] = {
    Q(2): HigherVEChoice("first", "second"),
    Q(1, 2): HigherVEChoice("first", "second"),
    Q(5, 2): HigherVEChoice("first", "first"),
}


def standard_choice(n: Fraction) -> HigherVEChoice:
    """The pick the case-2 chain runs first for Lame index n."""
    return STANDARD_CHOICES.get(n, HigherVEChoice())


#: the four pure first-order pick combinations the case-2 chain tries
SCAN_CHOICES = tuple(HigherVEChoice(p0, pj) for p0 in ("first", "second")
                     for pj in ("first", "second"))


def run_order(n: Fraction) -> Tuple[HigherVEChoice, ...]:
    """The SCAN_CHOICES in the order the case-2 chain tries them for Lame
    index n: the standard pick first, except at n = 2.  The standard index-2
    pick ("first", "second") takes xi_j = +sol2, so c = 0 in the VE3 rows
    (8/5) w0 c^3 and -(24/5) w0 c^2 d of README acceptance row 3 (B_j = 0,
    N_f = 1), and it has read zero on every index-2 point measured, where
    ("first", "first") decided.  Both picks need order 7, so one context
    serves either, and the chain still runs every other pick where the first
    is silent: no pick is skipped.  STANDARD_CHOICES keeps the picks that
    the acceptance criteria and ``series --what mu2|mu3`` quote."""
    first = HigherVEChoice("first", "first") if n == 2 else standard_choice(n)
    return (first, *(ch for ch in SCAN_CHOICES if ch != first))


def block_labels(count: int) -> Tuple[str, ...]:
    """Names of the first ``count`` blocks: tangential, normal_1, ..."""
    return ("tangential", *(f"normal_{j}" for j in range(1, count)))


@dataclass(frozen=True)
class HigherVEResult:
    """The chain's reading at each variational order k = 2, 3.

    ``rows[k - 2]`` holds, per block with the tangential block first, the
    1/t coefficients of the rows -sol2*K and sol1*K of X^{-1} (0, K)^T, and
    ``forcings[k - 2]`` those K.  A nonzero row at order k puts log t into
    that order's solution, so the chain stops at the first such order.
    """

    choice: HigherVEChoice
    rows: Tuple[Tuple[Tuple[Fraction, Fraction], ...], ...]
    forcings: Tuple[Tuple[PuiseuxSeries, ...], ...]

    @property
    def ve2_has_log(self) -> bool:
        return any(map(any, self.rows[0]))

    def nonzero_witness(self):
        """(block, row, residue) of the first nonzero VE3 residue, normal
        blocks before the tangential one, or None."""
        if not self.rows[1:]:
            return None
        blocks = list(zip(block_labels(len(self.rows[1])), self.rows[1]))
        for block, pair in blocks[1:] + blocks[:1]:
            for row, r in zip(("first", "second"), pair):
                if r != 0:
                    return (block, row, r)
        return None


@dataclass(frozen=True)
class VE1Context:
    """First-order data of one parameter point at one truncation order,
    shared by every pick: the only way into the VE2 -> VE3 chain.

    Each basis carries the VE1 coefficient it solves (``basis.q``), and
    ``orbit`` holds q0 (``orbit.qbar``) with the other orbit coefficients of
    the forcings; it caches the forcing terms of each first-order pick, so a
    pick's terms are built once per context, however many chains use them.
    """

    tangential_basis: FrobeniusBasis
    normal_bases: Tuple[FrobeniusBasis, ...]
    orbit: OrbitFactors


def ve1_context(p, e, order) -> VE1Context:
    """Build VE1 and its Frobenius bases once for one parameter point;
    raises FirstOrderLogError where a basis needs log t."""
    ve1 = build_ve1(p, e, Q(order))
    qbar = ve1.qbar0
    if not qbar:
        raise InsufficientOrderError(
            f"q0 = 1/t + ... keeps no term below t^{order}")
    return VE1Context(tangential_basis=frobenius(ve1.tangential),
                      normal_bases=tuple(frobenius(nj) for nj in ve1.normal),
                      orbit=OrbitFactors.of(qbar, p.g_bf, e.C0_sq))


def _pick(basis: FrobeniusBasis, which: str) -> PuiseuxSeries:
    return basis.sol1 if which == "first" else basis.sol2


def higher_ve_residues(ctx: VE1Context,
                       choice: HigherVEChoice) -> HigherVEResult:
    """Run the VE2 -> VE3 chain with the given picks, stopping at VE2 when
    a VE2 row is nonzero.  The forcing terms that depend on one pick alone
    come from the context's cache, so the picks of one context build each
    of them once."""
    tb, nbs = ctx.tangential_basis, ctx.normal_bases
    bases = (tb, *nbs)
    xi0_1 = _pick(tb, choice.pick_xi0)
    xij_1 = [_pick(b, choice.pick_xij) for b in nbs]

    k0_2, kj_2 = forcing_k2(ctx.orbit, xi0_1, xij_1)
    k2 = (k0_2, *kj_2)
    vocs = [variation_of_constants(b, k) for b, k in zip(bases, k2)]
    rows2 = tuple(v.log_coefficients for v in vocs)
    if any(map(any, rows2)):
        return HigherVEResult(choice, (rows2,), (k2,))

    k0_3, kj_3 = forcing_k3(ctx.orbit, xi0_1, xij_1, vocs[0].particular,
                            [v.particular for v in vocs[1:]])
    k3 = (k0_3, *kj_3)
    rows3 = tuple((-b.sol2.product_residue(k), b.sol1.product_residue(k))
                  for b, k in zip(bases, k3))
    return HigherVEResult(choice, (rows2, rows3), (k2, k3))


# ---------------------------------------------------------------------------
# truncation order from the Frobenius exponents
# ---------------------------------------------------------------------------

class _Valuation:
    """Leading exponent of a chain series, standing in for the series when
    the forcings run on exponents alone: a product adds valuations, an
    inverse negates one, a sum takes the smaller (a cancellation of leading
    terms only raises it)."""

    __slots__ = ("v",)

    def __init__(self, v: Fraction):
        self.v = v

    def __mul__(self, other: "_Valuation") -> "_Valuation":
        return _Valuation(self.v + other.v)

    def __add__(self, other: "_Valuation") -> "_Valuation":
        return _Valuation(min(self.v, other.v))

    __sub__ = __add__

    def __eq__(self, other) -> bool:
        return isinstance(other, _Valuation) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def scale(self, k) -> "_Valuation":
        return self

    def invert(self) -> "_Valuation":
        return _Valuation(-self.v)


@functools.lru_cache
def chain_order(n: Fraction, choice: HigherVEChoice) -> int:
    """Least truncation order at which ``higher_ve_residues`` with
    ``choice`` reads every exact value it needs, for Lame index n, from the
    Frobenius exponents (rho1, rho2): (3, -2) for the tangential block
    (c2 = 6) and (n + 1, -n) for every normal block.

    At order P, VE1's coefficients and bases are exact below v + P + 2 and
    q0 and its powers below v + P + 1, v the leading exponent.  That needs
    q0^2 = 1/t^2 + ... exact below t^P only, and ``build_ve1`` builds it no
    further (below 2 it builds it to t^2): ``sqrt`` keeps its relative
    precision P + 2, so q0 = 1/t + ... is exact below t^(P+1).  Products
    and sums keep the smaller margin.  A VE2 particular y, read off the
    forced recursion, is exact below min(t_K + 2, v(y) + t_q + 2), t_q = P
    the truncation of its block's coefficient and v(y) = v(K) + 2, which
    is the bound of the product form sol1*int(-sol2*K) + sol2*int(sol1*K)
    too; so it keeps the margin of K.  So every series of the chain is
    exact below v + P + 1, where v is its valuation counted without
    cancellations, a lower bound.  The chain reads: sol1 of each block
    through its resonance (rho2 + P + 2 > rho1), and the 1/t coefficients of
    sol1*K and sol2*K for the VE2 and VE3 forcings K of each block, exact
    once rho2 + v(K) + P + 1 > -1 (sol1 binds); at VE2 that is the
    recursion reaching t^rho1.  K3 is cubic in the
    first-order picks, so for n >= 2 a VE3 residue sets the order.
    """
    tang, norm = (Q(3), Q(-2)), (n + 1, -n)

    def pick(block, which):
        return _Valuation(block[1] if which == "first" else block[0])

    orbit = OrbitFactors.of(_Valuation(Q(-1)), 1, 1)
    xi0, xj = pick(tang, choice.pick_xi0), pick(norm, choice.pick_xij)
    k0_2, (kj_2,) = forcing_k2(orbit, xi0, [xj])
    # a particular solution has valuation v(K) + rho1 + rho2 + 1 = v(K) + 2
    xi0_2, xj_2 = _Valuation(k0_2.v + 2), _Valuation(kj_2.v + 2)
    k0_3, (kj_3,) = forcing_k3(orbit, xi0, [xj], xi0_2, [xj_2])
    bound = Q(-1)                  # q0 = 1/t + ... keeps a term once P > -1
    for (rho1, rho2), forcings in ((tang, (k0_2, k0_3)),
                                   (norm, (kj_2, kj_3))):
        bound = max(bound, rho1 - rho2 - 2,
                    *(-2 - rho2 - k.v for k in forcings))
    return math.floor(bound) + 1
