"""Independent forcing-term oracle: formal epsilon-expansion of the vector
field with arbitrary series substituted for the variations.

Nothing here knows the hand-coded forcing formulas; polynomials in a formal
epsilon (coefficients are Puiseux series) are pushed through the right-hand
sides and the order-2/order-3 slots are read off.
"""
from fractions import Fraction as Q
from typing import List, Sequence

from bfmix.series import PuiseuxSeries

MAX_DEG = 3


def eps_mul(a: List[PuiseuxSeries], b: List[PuiseuxSeries]) -> List[PuiseuxSeries]:
    out = []
    for k in range(MAX_DEG + 1):
        term = None
        for i in range(k + 1):
            if i < len(a) and (k - i) < len(b):
                prod = a[i] * b[k - i]
                term = prod if term is None else term + prod
        out.append(term if term is not None else PuiseuxSeries({}))
    return out


def eps_scale(a, k):
    return [s.scale(k) for s in a]


def eps_add(a, b):
    return [x + y for x, y in zip(a, b)]


def eps_inv(a: List[PuiseuxSeries]) -> List[PuiseuxSeries]:
    """Multiplicative inverse of an epsilon polynomial whose degree-0 slot is
    an invertible series."""
    inv0 = a[0].invert()
    out = [inv0]
    for k in range(1, MAX_DEG + 1):
        acc = None
        for i in range(1, k + 1):
            prod = a[i] * out[k - i]
            acc = prod if acc is None else acc + prod
        out.append(-(inv0 * acc))
    return out


def forcing_oracle(qbar: PuiseuxSeries, omega0, omegas, C0_sq, g,
                   xi0_1: PuiseuxSeries, xij_1: Sequence[PuiseuxSeries],
                   xi0_2: PuiseuxSeries, xij_2: Sequence[PuiseuxSeries]):
    """Returns (K0_2, [Kj_2], K0_3, [Kj_3]) straight from the equations of
    motion expanded in epsilon; the order-3 variation slots are zero, so the
    order-3 coefficient of the right-hand side is the forcing itself, and the
    order-2 coefficient is forcing plus the linear term, which is subtracted.
    """
    omega0, C0_sq, g = Q(omega0), Q(C0_sq), Q(g)
    zero = PuiseuxSeries({}, qbar.truncation_order)
    Q0 = [qbar, xi0_1, xi0_2, zero]
    Qjs = [[zero, x1, x2, zero] for x1, x2 in zip(xij_1, xij_2)]

    # rhs0 = -2 w0 q0 + 2 q0^3 + 2 g q0 sum(qj^2) + C0^2 / q0^3
    q0_sq = eps_mul(Q0, Q0)
    q0_cu = eps_mul(q0_sq, Q0)
    sum_qj_sq = None
    for Qj in Qjs:
        s = eps_mul(Qj, Qj)
        sum_qj_sq = s if sum_qj_sq is None else eps_add(sum_qj_sq, s)
    rhs0 = eps_add(eps_scale(Q0, -2 * omega0), eps_scale(q0_cu, 2))
    rhs0 = eps_add(rhs0, eps_scale(eps_mul(Q0, sum_qj_sq), 2 * g))
    if C0_sq != 0:
        rhs0 = eps_add(rhs0, eps_scale(eps_inv(q0_cu), C0_sq))

    # tangential linear coefficient from the same expansion machinery
    qb_sq = qbar * qbar
    T = (PuiseuxSeries.constant(-2 * omega0) + qb_sq.scale(6)
         - (qb_sq * qb_sq).invert().scale(3 * C0_sq))
    K0_2 = rhs0[2] - T * xi0_2
    K0_3 = rhs0[3]

    Kj_2, Kj_3 = [], []
    for Qj, wj, x2 in zip(Qjs, omegas, xij_2):
        rhsj = eps_add(eps_scale(Qj, -2 * Q(wj)),
                       eps_scale(eps_mul(q0_sq, Qj), 2 * g))
        Nj = PuiseuxSeries.constant(-2 * Q(wj)) + qb_sq.scale(2 * g)
        Kj_2.append(rhsj[2] - Nj * x2)
        Kj_3.append(rhsj[3])
    return K0_2, Kj_2, K0_3, Kj_3
