"""Uniformizing time delta = int dt / p0^2 along the case-3 separatrix.

Two antiderivatives of 1/p0^2: the quoted closed form and the one derived
here, with a finite-difference check of each against 1/p0^2 itself.  Only
``tests/test_melnikov.py`` uses them; the case-3 analysis does not.
"""
from __future__ import annotations

import math
from typing import Sequence

from bfmix.melnikov import MelnikovSetup
from bfmix.model import separatrix_slope


def delta_closed_form(s: MelnikovSetup, t: float) -> float:
    """Quoted quadrature of 1/p0^2 along the separatrix (uniformizing time)."""
    a, w0 = s.a, s.omega0
    r = math.sqrt(3 * a)
    sh, ch, th_ = math.sinh(r * t), math.cosh(r * t), math.tanh(r * t)
    return (1 / (3 * a) ** 3) * (
        (2 * w0 + 3 * a) / (12 * r) * sh * ch ** 3
        + (10 * w0 + 27 * a) / (8 * r) * sh * ch
        + (2 * w0 + 12 * a) / (3 * r) * th_
        + (26 * w0 + 99 * a) / 8 * t)


def delta_derived(s: MelnikovSetup, t: float) -> float:
    """Antiderivative of 1/p0^2 on the separatrix, reduced to closed form.

    1/p0^2 = (c S^6 + 3a S^4) / (9 a^2 r^2 C^2) with S, C at rt, c = 2w0/3 + a
    and r = sqrt(3a); integrating the even powers gives the four-term bracket
    below.  Its derivative reproduces 1/p0^2 to machine precision, unlike the
    quoted form (same leading cosh^3 sinh coefficient, different lower terms).
    """
    a, w0 = s.a, s.omega0
    r = math.sqrt(3 * a)
    sh, ch, th_ = math.sinh(r * t), math.cosh(r * t), math.tanh(r * t)
    return (1 / (3 * a) ** 3) * (
        (2 * w0 + 3 * a) / (12 * r) * sh * ch ** 3
        + (3 * a - 6 * w0) / (8 * r) * sh * ch
        + (6 * a - 2 * w0) / (3 * r) * th_
        + (10 * w0 - 21 * a) / 8 * t)


def inverse_p0_squared(s: MelnikovSetup, t: float) -> float:
    """1/p0^2 on the separatrix, from the closed forms of q0^2 and its slope."""
    u = 2 * s.omega0 / 3 + s.a + 3 * s.a / math.sinh(math.sqrt(3 * s.a) * t) ** 2
    udot = separatrix_slope(s.a, t).real
    p0_sq = udot * udot / (4 * u)
    return 1.0 / p0_sq


def delta_quadrature_check(s: MelnikovSetup, t_samples: Sequence[float],
                           step: float = 1e-5,
                           form=delta_closed_form) -> float:
    """Max relative defect between d/dt of a closed form and 1/p0^2.

    A defect above 1e-4 marks that form as inconsistent with the quadrature
    it is supposed to evaluate (the quoted form fails this; delta_derived
    passes).
    """
    worst = 0.0
    for t in t_samples:
        t = float(t)
        ddelta = (form(s, t + step) - form(s, t - step)) / (2 * step)
        target = inverse_p0_squared(s, t)
        worst = max(worst, abs(ddelta - target) / abs(target))
    return worst
