"""Case C0 = 0: normal variational equation along the oscillator-plane orbit.

With all transverse frequencies equal (w_j = omega^2/2) the equation is a
sinh-Mathieu variant

    xi0'' + [A1 + B1 sinh(2 i omega t)] xi0 = 0,
    A1 = 2 w0,  B1 = -(2/omega) g sum(C_j),

which the substitution x = exp(2 i omega t), y = sqrt(x) xi0 turns into the
normal form y'' = r(x) y with r(x) = -B/x - (A + 1/4)/x^2 + B/x^3,
A = -A1/(4 omega^2), B = -B1/(8 omega^2).  For B != 0 the symmetry group of
that normal form is the full SL(2, C), so one nonzero rational B is a
complete non-integrability witness; B = 0 collapses it to a solvable Euler
equation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

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

    @cached_property
    def _r_floats(self):
        """(A + 1/4, B) as floats, converted once."""
        return float(self.A) + 0.25, float(self.B)

    def r_of_x(self, x: complex) -> complex:
        a_quarter, b = self._r_floats
        return -b / x - a_quarter / x ** 2 + b / x ** 3


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

    Both routes are integrated in t (the path stays on |x| = 1, far from the
    irregular points x = 0 and infinity); the second uses the chain rule
    y_tt = 2 i omega y_t + (2 i omega x)^2 r(x) y.  They share one state
    (xi, xi_t, y, y_t) and one step sequence.  The tolerances are divided by
    sqrt(2), so the squared RMS error over the four components is
    err_M^2 + err_H^2, where err_M and err_H are each route's own RMS at the
    undivided tolerances: a step is accepted only where each route alone
    would accept it.
    """
    w = float(red.omega)
    a1, b1 = float(red.A1), float(red.B1)

    def f(t, v):
        xi, dxi, y, dy = v.tolist()
        x = cmath.exp(2j * w * t)
        return [dxi, -(a1 + b1 * cmath.sinh(2j * w * t)) * xi,
                dy, 2j * w * dy + (2j * w * x) ** 2 * red.r_of_x(x) * y]

    t0 = float(t_grid[0])
    xi0, dxi0 = 1.0 + 0j, 0.0 + 0j
    x0 = cmath.exp(2j * w * t0)
    y0 = cmath.sqrt(x0) * xi0
    # y_t = i w y + sqrt(x) xi_t
    dy0 = 1j * w * y0 + cmath.sqrt(x0) * dxi0

    v = np.array([xi0, dxi0, y0, dy0], dtype=complex)
    defect = 0.0
    tprev = t0
    for t in t_grid[1:]:
        v, _ = integrate(f, tprev, v, float(t), rtol=rtol / math.sqrt(2),
                         atol=1e-14 / math.sqrt(2))
        # sqrt branch continued along the path: sqrt(x) = exp(i w t)
        y_from_mathieu = cmath.exp(1j * w * float(t)) * v[0]
        defect = max(defect, abs(y_from_mathieu - v[2]))
        tprev = float(t)
    return defect


def euler_exponent_check(red: HeunReduction) -> float:
    """For B = 0 the normal form is Euler's equation; x^s solves it with
    s(s-1) = -(A + 1/4).  Returns the magnitude of that indicial residual
    for the exponent computed from A."""
    if red.B != 0:
        raise ValueError("Euler check applies to B = 0 only")
    a = complex(float(red.A))
    s = 0.5 + cmath.sqrt(0.25 - (a + 0.25))
    return abs(s * (s - 1) + (a + 0.25))
