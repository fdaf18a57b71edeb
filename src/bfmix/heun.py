"""Case C0 = 0: normal variational equation along the oscillator-plane orbit.

With all transverse frequencies equal (w_j = omega^2/2) the equation is a
sinh-Mathieu variant

    xi0'' + [A1 + B1 sinh(2 i omega t)] xi0 = 0,
    A1 = 2 w0,  B1 = -(2/omega) g sum(C_j),

which the substitution x = exp(2 i omega t), y = sqrt(x) xi0 turns into the
normal form y'' = r(x) y with r(x) = -B/x - (A + 1/4)/x^2 + B/x^3,
A = -A1/(4 omega^2), B = -B1/(8 omega^2).  For B != 0 the differential
Galois group of that normal form is the full SL(2, C), so one nonzero
rational B is a complete non-integrability witness; B = 0 collapses it to a
solvable Euler equation.

The certificate is Kovacic's algorithm (J. Symbolic Comput. 2 (1986)).  As
one fraction, r(x) = (-B x^2 - (A + 1/4) x + B)/x^3.  With B != 0 its only
pole in C is x = 0, of order 3, and its order at infinity (the degree of
the denominator less that of the numerator) is 1.  Kovacic's three
Liouvillian cases each need a condition that r fails:

* case 1 needs every pole simple or of even order; x = 0 has order 3;
* case 3 needs every pole of order at most 2; x = 0 has order 3;
* case 2 admits an odd pole of order above 2, with E_0 = {3}, and the order
  1 < 2 at infinity gives E_inf = {1}; its only candidate degree is
  d = (e_inf - e_0)/2 = (1 - 3)/2 = -1, not a nonnegative integer, so no
  family of exponents survives.

So no Liouvillian solution exists and the group is SL(2, C), whose identity
component is not abelian.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .odeint import integrate
from .series import rational_sqrt

Q = Fraction


class UnequalFrequenciesError(ValueError):
    """The reduction needs all transverse frequencies equal."""


class AssumptionViolatedError(ValueError):
    """sum(C_j) = 0 defeats the reduction (B1 would vanish identically)."""


@dataclass(frozen=True)
class HeunReduction:
    A1: Fraction
    B1: Fraction
    A: Fraction
    B: Fraction
    omega: Fraction
    c_sum: Fraction
    g_bf: Fraction
    omega0: Fraction


def reduce_case1(omega0, omega, g_bf, c_sum) -> HeunReduction:
    """Reduction constants from the common frequency omega (w_j = omega^2/2)."""
    omega0, omega, g_bf, c_sum = Q(omega0), Q(omega), Q(g_bf), Q(c_sum)
    if omega0 <= 0 or omega <= 0:
        raise ValueError("omega0 and omega must be positive")
    if c_sum == 0:
        raise AssumptionViolatedError("sum of C_j vanishes")
    a1 = 2 * omega0
    b1 = -2 * g_bf * c_sum / omega
    return HeunReduction(
        A1=a1, B1=b1,
        A=-a1 / (4 * omega ** 2),
        B=-b1 / (8 * omega ** 2),
        omega=omega, c_sum=c_sum, g_bf=g_bf, omega0=omega0)


def reduce_from_params(p) -> HeunReduction:
    """Reduction for model parameters; frequencies must match exactly."""
    if p.C0_sq != 0:
        raise ValueError("the reduction applies to C0 = 0 only")
    if len(set(p.omegas)) != 1:
        raise UnequalFrequenciesError(
            "unequal transverse frequencies are out of scope")
    omega_sq = 2 * Q(p.omegas[0])
    omega = rational_sqrt(omega_sq)
    if omega is None:
        raise ValueError(f"2 w_j = {omega_sq} has no rational square root; "
                         "supply omega directly")
    return reduce_case1(p.omega0, omega, p.g_bf, sum(p.Cs))


def transform_consistency(red: HeunReduction, t_grid: Sequence[float],
                          rtol: float = 1e-12) -> float:
    """Max defect between the sinh-Mathieu solution mapped by
    x = exp(2 i omega t), y = sqrt(x) xi0 and the direct solution of
    y'' = r(x) y carried along the same path.

    Only the ends of ``t_grid`` are used: one integration runs from
    ``t_grid[0]`` to ``t_grid[-1]``, and the defect is the largest over its
    accepted nodes.

    Both routes are integrated in t (the path stays on |x| = 1, far from the
    irregular points x = 0 and infinity); the second uses the chain rule
    y_tt = 2 i omega y_t + (2 i omega x)^2 r(x) y.  They share one state
    (xi, xi_t, y, y_t) and one step sequence, at the tolerances divided by
    sqrt(2).  Let a_X and b_X be route X's sums of squared scaled fifth- and
    third-order estimates at the undivided tolerances, c_X = a_X + b_X / 100.
    Route X alone would accept a step when err_X^2 = a_X^2 / (2 c_X) <= 1
    (``odeint``'s test on two components).  Dividing the tolerances by
    sqrt(2) doubles every sum, so the joint test reads
    err^2 = (a_M + a_H)^2 / (2 (c_M + c_H)) <= 1.  By the Cauchy-Schwarz
    inequality err^2 <= err_M^2 + err_H^2, as for an RMS test, but the
    joint test bounds one route only by err_M^2 <= err^2 (1 + c_H / c_M): an
    accepted step need not pass each route's own test.  The measured
    defect, not the step test, is the check's guarantee.

    The right-hand side makes one exponential per call.  The time stays
    real, so x = exp(2 i omega t) stays on |x| = 1, where 1/x = conj(x).
    The Mathieu route takes sinh(2 i omega t) as (x - 1/x)/2, with B1/2
    folded once.  The Heun route folds (2 i omega x)^2 = -4 omega^2 x^2 into
    r's coefficients -B, -(A + 1/4) and B at 1/x, 1/x^2 and 1/x^3, which
    leaves -4 omega^2 (-B x - (A + 1/4) + B/x).  The routes read their
    constants apart, A1 and B1 against A and B, so a wrong B still shows
    as a defect.
    """
    w = float(red.omega)
    two_iw = 2j * w
    a1, half_b1 = float(red.A1), float(red.B1) / 2
    a_quarter, b = float(red.A) + 0.25, float(red.B)
    m4w_sq = -4 * w * w
    k1, k0, k_1 = m4w_sq * -b, m4w_sq * -a_quarter, m4w_sq * b

    def f(t, v):
        xi, dxi, y, dy = v
        x = cmath.exp(two_iw * t)
        x_inv = x.conjugate()
        return [dxi, -(a1 + half_b1 * (x - x_inv)) * xi,
                dy, two_iw * dy + (k1 * x + k0 + k_1 * x_inv) * y]

    t0 = float(t_grid[0])
    xi0, dxi0 = 1.0 + 0j, 0.0 + 0j
    x0 = cmath.exp(2j * w * t0)
    y0 = cmath.sqrt(x0) * xi0
    # y_t = i w y + sqrt(x) xi_t
    dy0 = 1j * w * y0 + cmath.sqrt(x0) * dxi0

    _, traj = integrate(f, t0, [xi0, dxi0, y0, dy0], float(t_grid[-1]),
                        rtol=rtol / math.sqrt(2), atol=1e-14 / math.sqrt(2))
    # sqrt branch continued along the path: sqrt(x) = exp(i w t)
    return max(abs(cmath.exp(1j * w * t) * v[0] - v[2])
               for t, v in zip(traj.times, traj.states))
