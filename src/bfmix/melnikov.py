"""Separatrix-splitting analysis for the two-degree case (C0, C1 both nonzero).

The transverse oscillator is frozen at action I, leaving a periodically
forced one-degree system whose unperturbed part has the separatrix

    q0^2(t) = (2/3) w0 + a + 3a / sinh^2(sqrt(3a) t).

The splitting function is the loop integral of the Poisson bracket
{H0, H1} = 2 p0 q0 * q1^2(t - t0) around the pole t = 0.  By trig addition
and one residue it is exactly d(t0) = A sin(theta t0) with
A = 16 pi i w1 * amplitude, zero exactly when I^2 = 2 w1 C1^2 (decided over
the rationals).  Its simple zeros are exactly k pi / theta, so the two of
one period, pi / theta and 2 pi / theta, are the non-integrability witness;
no t0 range is searched.  melnikov_numeric, a trapezoid quadrature on one
circle, tabulates d(t0) for ``bfmix sweep`` beside the quoted closed form.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import model
from .series import as_fraction

CONTOUR_POINTS = 512    # trapezoid nodes on |t| = contour_radius


class InvalidActionError(ValueError):
    """Action below the oval threshold: the oscillation amplitude is not real."""


@dataclass(frozen=True)
class MelnikovSetup:
    omega0: float
    omega1: float
    action_I: float
    amplitude: float    # of q1^2; 0.0 exactly when I^2 = 2 w1 C1^2
    h_star: float
    a: float
    contour_radius: float
    contour_points: int

    @property
    def theta(self) -> float:
        """Forcing frequency 2 sqrt(2 w1)."""
        return 2 * math.sqrt(2 * self.omega1)


def setup(omega0, omega1, C0_sq, C1_sq, action_I) -> MelnikovSetup:
    """The frozen-action problem at one point.  I^2 is compared with
    2 w1 C1^2 exactly, as Fractions of the arguments (a float counts as its
    binary value): below raises InvalidActionError, equal gives amplitude 0."""
    w0q, w1q, c0q, c1q, action = map(as_fraction, (omega0, omega1, C0_sq,
                                                   C1_sq, action_I))
    if min(w0q, w1q, c0q, c1q) <= 0:
        raise ValueError("frequencies and both centrifugal constants must be "
                         "positive in this case")
    amp_sq = (action ** 2 - 2 * w1q * c1q) / (4 * w1q ** 2)
    try:
        # C0^2 is converted only to refuse one beyond the float range here
        w0, w1, _, c1sq, I = map(float, (w0q, w1q, c0q, c1q, action))
        amplitude = math.sqrt(max(amp_sq, 0))
    except OverflowError as exc:
        raise ValueError(f"parameter out of float range: {exc}") from None
    if action <= 0 or amp_sq < 0:
        raise InvalidActionError(
            f"action {I} below the oval threshold sqrt(2 w1) |C1| = "
            f"{math.sqrt(2 * w1 * c1sq)}")
    if amp_sq and not amplitude:
        raise ValueError(f"amplitude^2 = {float(amp_sq)!r} underflows a float")
    if not w1:
        raise ValueError(f"omega1 = {float(w1q)!r} underflows a float")
    try:
        a, h_star = model.separatrix_scale(w0q, c0q)
    except OverflowError as exc:
        raise ValueError(f"separatrix out of float range: {exc}") from None
    # inside the next poles of u', at |t| = pi / sqrt(3a), and at most
    # 2 / theta = 1 / sqrt(2 w1): q1^2 grows like e^(theta |Im t|)
    radius = min(0.5, 0.5 * math.pi / math.sqrt(3 * a), 1 / math.sqrt(2 * w1))
    return MelnikovSetup(omega0=w0, omega1=w1, action_I=I,
                         amplitude=amplitude, h_star=h_star, a=a,
                         contour_radius=radius, contour_points=CONTOUR_POINTS)


def poisson_bracket_H0H1(s: MelnikovSetup, t: complex, cos_t0: float,
                         sin_t0: float) -> complex:
    """{H0, H1} restricted to the separatrix: 2 p0 q0 q1^2(t - t0) = u'(t) q1^2,
    with q1^2(t - t0) = I/(2 w1) - amplitude sin(theta (t - t0)) expanded by
    trig addition; cos_t0, sin_t0 are cos(theta t0), sin(theta t0), so the
    phase theta t0 is rounded once per t0, not once per node."""
    phase = s.theta * t
    sin_shifted = cmath.sin(phase) * cos_t0 - cmath.cos(phase) * sin_t0
    return model.separatrix_slope(s.a, t) * (
        s.action_I / (2 * s.omega1) - s.amplitude * sin_shifted)


def _contour_integral(s: MelnikovSetup, t0: float, radius: float,
                      points: int) -> complex:
    step = 2 * math.pi / points
    cos_t0, sin_t0 = math.cos(s.theta * t0), math.sin(s.theta * t0)
    total = 0j
    for k in range(points):
        t = radius * cmath.exp(1j * (k * step))
        total += poisson_bracket_H0H1(s, t, cos_t0, sin_t0) * 1j * t
    return total * step


def melnikov_numeric(s: MelnikovSetup, t0: float) -> complex:
    """Loop integral of {H0, H1} around t = 0 (counterclockwise), by the
    trapezoid rule on |t| = s.contour_radius; a sum that leaves the float
    range raises ValueError."""
    try:
        d = _contour_integral(s, t0, s.contour_radius, s.contour_points)
        if cmath.isfinite(d):
            return d
    except (ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"d({t0}) on |t| = {s.contour_radius} leaves the float "
                     "range")


def quoted_amplitude(s: MelnikovSetup) -> float:
    """The quoted prefactor 12 pi a sqrt(2 w1) * amplitude.

    Kept verbatim for comparison; the residue calculus of predicted_amplitude,
    checked by the numeric contour, gives a different one.
    """
    return 12 * math.pi * s.a * math.sqrt(2 * s.omega1) * s.amplitude


def melnikov_closed_form(s: MelnikovSetup, t0: float) -> complex:
    """The quoted closed sine form i quoted_amplitude * sin(theta t0)."""
    return 1j * quoted_amplitude(s) * math.sin(s.theta * t0)


def predicted_amplitude(s: MelnikovSetup) -> complex:
    """A of d(t0) = A sin(theta t0), by residues: u = q0^2 = 1/t^2 + c + O(t^2)
    at the pole, so the loop integral of u' cos(theta t) is 2 pi i theta^2
    and A = 2 pi i theta^2 * amplitude = 16 pi i w1 * amplitude."""
    return 16j * math.pi * s.omega1 * s.amplitude


def find_simple_zeros(s: MelnikovSetup) -> List[Tuple[float, float]]:
    """The zeros pi / theta and 2 pi / theta of one period of
    d(t0) = A sin(theta t0), as (zero, |d'(zero)|) pairs with
    |d'| = theta |A|, A from predicted_amplitude; A exactly zero reports
    nothing."""
    if not s.amplitude:
        return []
    slope = s.theta * abs(predicted_amplitude(s))
    return [(k * (math.pi / s.theta), slope) for k in (1, 2)]


def sweep_csv_rows(s: MelnikovSetup, t0_values: Sequence[float]):
    """Rows 't0,d_num_re,d_num_im,d_closed_re,d_closed_im'."""
    for t0 in t0_values:
        dn = melnikov_numeric(s, float(t0))
        dc = melnikov_closed_form(s, float(t0))
        yield f"{float(t0)!r},{dn.real!r},{dn.imag!r},{dc.real!r},{dc.imag!r}"
