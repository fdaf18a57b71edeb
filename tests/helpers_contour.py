"""The splitting function's contour quadrature, checked at two radii.

``melnikov.melnikov_numeric`` integrates the bracket on one circle.  The
tests' oracle integrates again on half the radius with twice the nodes and
requires the two loop integrals to agree, since the integrand has no other
pole inside the larger circle.
"""
from __future__ import annotations

import math

from bfmix import melnikov

RADIUS_TOL = 1e-6       # agreement required of the two radii


def splitting_scale(s: melnikov.MelnikovSetup) -> float:
    """16 pi w1 * amplitude, the size of d(t0), floored at 1e-30."""
    return 16 * math.pi * s.omega1 * max(s.amplitude, 1e-30)


def contour_oracle(s: melnikov.MelnikovSetup, t0: float) -> complex:
    """d(t0) from ``melnikov_numeric``, asserted to agree with the loop
    integral on half the radius to RADIUS_TOL relative to the larger of the
    two values and ``splitting_scale``."""
    d1 = melnikov.melnikov_numeric(s, t0)
    d2 = melnikov._contour_integral(s, t0, s.contour_radius / 2,
                                    2 * s.contour_points)
    scale = max(abs(d1), abs(d2), splitting_scale(s))
    assert abs(d1 - d2) <= RADIUS_TOL * scale, (
        f"contour values differ: {d1} vs {d2}")
    return d1
