"""Separatrix-splitting analysis for the two-degree case (C0, C1 both nonzero).

The transverse oscillator is frozen at action I, leaving a periodically
forced one-degree system whose unperturbed part has the separatrix

    q0^2(t) = (2/3) w0 + a + 3a / sinh^2(sqrt(3a) t).

The splitting function is the loop integral of the Poisson bracket
{H0, H1} = 2 p0 q0 * q1^2(t - t0) around the pole t = 0.  By trig addition
and one residue it is exactly d(t0) = A sin(theta t0) with
A = 16 pi i w1 * amplitude, zero exactly when I^2 = 2 w1 C1^2 (decided over
the rationals); its simple zeros k pi / theta are the non-integrability
witness.  melnikov_numeric, a trapezoid quadrature, is the independent check.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import model

Q = Fraction

CONTOUR_POINTS = 512    # trapezoid nodes on |t| = r, twice as many on r/2
RADIUS_TOL = 1e-6       # agreement melnikov_numeric requires of the radii
MAX_ZEROS = 10 ** 4     # find_simple_zeros refuses a range holding more


class InvalidActionError(ValueError):
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
    w0q, w1q, c0q, c1q, action = map(Q, (omega0, omega1, C0_sq, C1_sq,
                                         action_I))
    if min(w0q, w1q, c0q, c1q) <= 0:
        raise ValueError("frequencies and both centrifugal constants must be "
                         "positive in this case")
    amp_sq = action ** 2 / (4 * w1q ** 2) - c1q / (2 * w1q)
    try:
        w0, w1, c0sq, c1sq, I = map(float, (w0q, w1q, c0q, c1q, action))
        amplitude = math.sqrt(max(amp_sq, 0))
    except OverflowError as exc:
        raise ValueError(f"parameter out of float range: {exc}") from None
    if action <= 0 or amp_sq < 0:
        raise InvalidActionError(
            f"action {I} below the oval threshold sqrt(2 w1) |C1| = "
            f"{math.sqrt(2 * w1 * c1sq)}")
    if amp_sq and not amplitude:
        raise ValueError(f"amplitude^2 = {float(amp_sq)!r} underflows a float")
    try:
        a, h_star = model.separatrix_scale(w0q, c0q)
    except OverflowError as exc:
        raise ValueError(f"separatrix out of float range: {exc}") from None
    radius = min(0.5, 0.5 * math.pi / math.sqrt(3 * a))
    return MelnikovSetup(omega0=w0, omega1=w1, C0_sq=c0sq, C1_sq=c1sq,
                         action_I=I, amplitude=amplitude,
                         h_star=h_star, a=a, contour_radius=radius,
                         contour_points=CONTOUR_POINTS)


def q1_squared(s: MelnikovSetup, tau: complex) -> complex:
    """Transverse factor I/(2 w1) - amplitude * sin(theta tau)."""
    return s.action_I / (2 * s.omega1) - s.amplitude * cmath.sin(s.theta * tau)


def poisson_bracket_H0H1(s: MelnikovSetup, t: complex, t0: float) -> complex:
    """{H0, H1} restricted to the separatrix: 2 p0 q0 q1^2(t - t0) = u'(t) q1^2."""
    return model.separatrix_slope(s.a, t) * q1_squared(s, t - t0)


def _contour_integral(s: MelnikovSetup, t0: float, radius: float,
                      points: int) -> complex:
    step = 2 * math.pi / points
    total = 0j
    for k in range(points):
        t = radius * cmath.exp(1j * (k * step))
        total += poisson_bracket_H0H1(s, t, t0) * 1j * t
    return total * step


def melnikov_numeric(s: MelnikovSetup, t0: float,
                     check_radius_independence: bool = True) -> complex:
    """Loop integral of {H0, H1} around t = 0 (counterclockwise)."""
    d1 = _contour_integral(s, t0, s.contour_radius, s.contour_points)
    if check_radius_independence:
        d2 = _contour_integral(s, t0, s.contour_radius / 2,
                               2 * s.contour_points)
        scale = max(abs(d1), abs(d2), _scale(s))
        if abs(d1 - d2) > RADIUS_TOL * scale:
            raise ContourUnreliableError(
                f"contour values differ: {d1} vs {d2}")
    return d1


def _scale(s: MelnikovSetup) -> float:
    return 16 * math.pi * s.omega1 * max(s.amplitude, 1e-30)


def melnikov_closed_form(s: MelnikovSetup, t0: float) -> complex:
    """The quoted closed sine form 12 pi i a sqrt(2 w1) * amplitude * sin(theta t0).

    Kept verbatim for comparison; the residue calculus of predicted_amplitude,
    checked by the numeric contour, gives a different prefactor.
    """
    return (12j * math.pi * s.a * math.sqrt(2 * s.omega1) * s.amplitude
            * math.sin(s.theta * t0))


def predicted_amplitude(s: MelnikovSetup) -> complex:
    """A of d(t0) = A sin(theta t0), by residues: u = q0^2 = 1/t^2 + c + O(t^2)
    at the pole, so the loop integral of u' cos(theta t) is 2 pi i theta^2
    and A = 2 pi i theta^2 * amplitude = 16 pi i w1 * amplitude."""
    return 16j * math.pi * s.omega1 * s.amplitude


def find_simple_zeros(s: MelnikovSetup, t0_min: float, t0_max: float
                      ) -> List[Tuple[float, float]]:
    """Zeros k pi / theta of d(t0) = A sin(theta t0) in [t0_min, t0_max].

    Returns (zero, |d'(zero)|) pairs, each with |d'| = theta |A|, A from
    predicted_amplitude; A exactly zero reports nothing.  A range that is not
    finite, shorter than a period or holding over MAX_ZEROS zeros raises
    ValueError.
    """
    if not (math.isfinite(t0_min) and math.isfinite(t0_max)):
        raise ValueError(f"t0 range [{t0_min}, {t0_max}] must be finite")
    period = math.pi / math.sqrt(2 * s.omega1)
    if t0_max - t0_min < period:
        raise ValueError(f"range must cover a period {period}")
    spacing = math.pi / s.theta
    k_min, k_max = math.ceil(t0_min / spacing), math.floor(t0_max / spacing)
    if k_max - k_min >= MAX_ZEROS:
        raise ValueError(f"t0 range [{t0_min}, {t0_max}] holds more than "
                         f"{MAX_ZEROS} zeros")
    if not s.amplitude:
        return []
    slope = s.theta * abs(predicted_amplitude(s))
    return [(k * spacing, slope) for k in range(k_min, k_max + 1)]


def sweep_csv_rows(s: MelnikovSetup, t0_values: Sequence[float]):
    """Rows 't0,d_num_re,d_num_im,d_closed_re,d_closed_im'."""
    for t0 in t0_values:
        dn = melnikov_numeric(s, float(t0), check_radius_independence=False)
        dc = melnikov_closed_form(s, float(t0))
        yield f"{float(t0)!r},{dn.real!r},{dn.imag!r},{dc.real!r},{dc.imag!r}"
