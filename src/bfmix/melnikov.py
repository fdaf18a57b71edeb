"""Separatrix-splitting analysis for the two-degree case (C0, C1 both nonzero).

The transverse oscillator is frozen at action I, leaving a periodically
forced one-degree system whose unperturbed part has the separatrix

    q0^2(t) = (2/3) w0 + a + 3a / sinh^2(sqrt(3a) t).

The splitting function is the loop integral of the Poisson bracket
{H0, H1} = 2 p0 q0 * q1^2(t - t0) around the pole t = 0.  By trig addition
it is exactly d(t0) = A sin(theta t0), with A read off one exponentially
convergent trapezoid quadrature on a circle, checked at a second radius; its
simple zeros k pi / theta are the non-integrability witness here.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import model

Q = Fraction


class InvalidActionError(Exception):
    """Action below the oval threshold: the oscillation amplitude is not real."""


class ContourUnreliableError(Exception):
    """Quadratures at two radii disagree beyond tolerance."""


@dataclass(frozen=True)
class MelnikovSetup:
    omega0: float
    omega1: float
    C0_sq: float
    C1_sq: float
    action_I: float
    h_star: float
    a: float
    contour_radius: float
    contour_points: int

    @property
    def amplitude(self) -> float:
        """sqrt(I^2/(4 w1^2) - C1^2/(2 w1)), the q1^2 oscillation amplitude."""
        val = (self.action_I ** 2 / (4 * self.omega1 ** 2)
               - self.C1_sq / (2 * self.omega1))
        return math.sqrt(val) if val >= 0 else float("nan")

    @property
    def theta(self) -> float:
        """Forcing frequency 2 sqrt(2 w1)."""
        return 2 * math.sqrt(2 * self.omega1)


def setup(omega0, omega1, C0_sq, C1_sq, action_I,
          contour_points: int = 512) -> MelnikovSetup:
    w0, w1 = float(omega0), float(omega1)
    c0sq, c1sq = float(C0_sq), float(C1_sq)
    action = float(action_I)
    if w0 <= 0 or w1 <= 0 or c0sq <= 0 or c1sq <= 0:
        raise ValueError("frequencies and both centrifugal constants must be "
                         "positive in this case")
    if action ** 2 < 2 * w1 * c1sq or action <= 0:
        raise InvalidActionError(
            f"action {action} below the oval threshold sqrt(2 w1) |C1| = "
            f"{math.sqrt(2 * w1 * c1sq)}")
    h_star = model.separatrix_energy(w0, c0sq)
    disc = 4 * w0 ** 2 - 3 * h_star
    if disc <= 0:
        raise model.NoSeparatrixError(f"4 w0^2 - 3 h* = {disc} <= 0")
    a = math.sqrt(disc) / 3
    radius = min(0.5, 0.5 * math.pi / math.sqrt(3 * a))
    return MelnikovSetup(omega0=w0, omega1=w1, C0_sq=c0sq, C1_sq=c1sq,
                         action_I=action, h_star=h_star, a=a,
                         contour_radius=radius, contour_points=contour_points)


def _u_dot(s: MelnikovSetup, t: complex) -> complex:
    """d/dt of q0^2 on the separatrix: -6 a sqrt(3a) cosh / sinh^3."""
    root3a = math.sqrt(3 * s.a)
    sh = cmath.sinh(root3a * t)
    return -6 * s.a * root3a * cmath.cosh(root3a * t) / sh ** 3


def q1_squared(s: MelnikovSetup, tau: complex) -> complex:
    """Transverse factor I/(2 w1) - amplitude * sin(theta tau)."""
    return s.action_I / (2 * s.omega1) - s.amplitude * cmath.sin(s.theta * tau)


def poisson_bracket_H0H1(s: MelnikovSetup, t: complex, t0: float) -> complex:
    """{H0, H1} restricted to the separatrix: 2 p0 q0 q1^2(t - t0) = u'(t) q1^2."""
    return _u_dot(s, t) * q1_squared(s, t - t0)


def _contour_integral(s: MelnikovSetup, t0: float, radius: float,
                      points: int) -> complex:
    thetas = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    total = 0j
    for th in thetas:
        t = radius * cmath.exp(1j * th)
        total += poisson_bracket_H0H1(s, t, t0) * 1j * t
    return total * (2 * math.pi / points)


def melnikov_numeric(s: MelnikovSetup, t0: float,
                     check_radius_independence: bool = True,
                     rel_tol: float = 1e-6) -> complex:
    """Loop integral of {H0, H1} around t = 0 (counterclockwise)."""
    d1 = _contour_integral(s, t0, s.contour_radius, s.contour_points)
    if check_radius_independence:
        d2 = _contour_integral(s, t0, s.contour_radius / 2,
                               2 * s.contour_points)
        scale = max(abs(d1), abs(d2), _scale(s))
        if abs(d1 - d2) > rel_tol * scale:
            raise ContourUnreliableError(
                f"contour values differ: {d1} vs {d2}")
    return d1


def _scale(s: MelnikovSetup) -> float:
    return 16 * math.pi * s.omega1 * max(s.amplitude, 1e-30)


def _moments(s: MelnikovSetup, radius: float, points: int
             ) -> Tuple[complex, complex, complex, float]:
    """(c0, A, cc, floor) of d(t0) = c0 + A sin(theta t0) + cc cos(theta t0)
    from trapezoid sums of u', u' cos(theta t), u' sin(theta t) on |t| = radius;
    c0 and cc vanish analytically.  floor is the round-off level: the
    total-variation mass of the integrand at t0 = 0 times 1e-13."""
    t = radius * np.exp(1j * np.linspace(0.0, 2 * math.pi, points,
                                          endpoint=False))
    root3a = math.sqrt(3 * s.a)
    udt = (-6 * s.a * root3a * np.cosh(root3a * t) / np.sinh(root3a * t) ** 3
           * 1j * t * (2 * math.pi / points))
    sin_t = np.sin(s.theta * t)
    amp, action_term = s.amplitude, s.action_I / (2 * s.omega1)
    floor = float(np.abs(udt) @ np.abs(action_term - amp * sin_t)) * 1e-13
    return (action_term * complex(udt.sum()),
            amp * complex(udt @ np.cos(s.theta * t)),
            -amp * complex(udt @ sin_t), floor)


@dataclass(frozen=True)
class Splitting:
    """d(t0) = amplitude * sin(theta t0).  residual: rms of the non-sine part
    of d over a period, relative to |amplitude|.  degenerate: at or below 100x
    the round-off floor at both radii, so identically zero."""
    amplitude: complex
    residual: float
    degenerate: bool


def splitting(s: MelnikovSetup) -> Splitting:
    """The splitting function from one vectorised quadrature per radius.

    Raises ContourUnreliableError when the amplitudes at the two radii differ
    by more than 1e-6 relative (the tolerance of melnikov_numeric), or when
    either non-sine term of d exceeds 1e-8 |amplitude|.
    """
    c0, A, cc, floor = _moments(s, s.contour_radius, s.contour_points)
    _, A2, _, floor2 = _moments(s, s.contour_radius / 2, 2 * s.contour_points)
    rms = math.sqrt(abs(c0) ** 2 + abs(cc) ** 2 / 2)
    residual = rms / abs(A) if A else math.inf
    if abs(A) <= 100 * floor and abs(A2) <= 100 * floor2:
        return Splitting(A, residual, degenerate=True)
    if abs(A - A2) > 1e-6 * max(abs(A), abs(A2), _scale(s)):
        raise ContourUnreliableError(
            f"splitting amplitudes differ between radii: {A} vs {A2}")
    if max(abs(c0), abs(cc)) > 1e-8 * abs(A):
        raise ContourUnreliableError(
            f"non-sine terms {abs(c0)}, {abs(cc)} above 1e-8 of the "
            f"amplitude {abs(A)}")
    return Splitting(A, residual, degenerate=False)


def melnikov_closed_form(s: MelnikovSetup, t0: float) -> complex:
    """The quoted closed sine form 12 pi i a sqrt(2 w1) * amplitude * sin(theta t0).

    Kept verbatim for comparison; the numeric contour is the authority and
    measures a different prefactor (see fitted_amplitude).
    """
    return (12j * math.pi * s.a * math.sqrt(2 * s.omega1) * s.amplitude
            * math.sin(s.theta * t0))


def predicted_amplitude(s: MelnikovSetup) -> complex:
    """Residue calculus on the contour integrand gives
    d(t0) = 16 pi i w1 * amplitude * sin(theta t0); this is that prefactor."""
    return 16j * math.pi * s.omega1 * s.amplitude


def fitted_amplitude(s: MelnikovSetup) -> Tuple[complex, float]:
    """(A, residual) of d(t0) = A sin(theta t0); see splitting."""
    split = splitting(s)
    return split.amplitude, split.residual


def find_simple_zeros(s: MelnikovSetup, t0_min: float, t0_max: float,
                      split: Optional[Splitting] = None
                      ) -> List[Tuple[float, float]]:
    """Zeros k pi / theta of d(t0) = A sin(theta t0) in [t0_min, t0_max].

    Returns (zero, |d'(zero)|) pairs, each with |d'| = theta |A|; a degenerate
    splitting reports nothing.  ``split`` defaults to splitting(s).
    """
    period = math.pi / math.sqrt(2 * s.omega1)
    if t0_max - t0_min < period:
        raise ValueError(f"range must cover a period {period}")
    split = split or splitting(s)
    if split.degenerate:
        return []
    spacing = math.pi / s.theta
    slope = s.theta * abs(split.amplitude)
    ks = range(math.floor(t0_min / spacing), math.floor(t0_max / spacing) + 2)
    return [(k * spacing, slope) for k in ks
            if t0_min <= k * spacing <= t0_max]


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
    udot = _u_dot(s, t).real
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


def sweep_csv_rows(s: MelnikovSetup, t0_values: Sequence[float]):
    """Rows 't0,d_num_re,d_num_im,d_closed_re,d_closed_im'."""
    for t0 in t0_values:
        dn = melnikov_numeric(s, float(t0), check_radius_independence=False)
        dc = melnikov_closed_form(s, float(t0))
        yield f"{float(t0)!r},{dn.real!r},{dn.imag!r},{dc.real!r},{dc.imag!r}"
