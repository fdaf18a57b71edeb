"""Adaptive Dormand-Prince 5(4) integration for complex-valued ODEs.

Time runs along a straight segment in the complex plane.  The state is a
flat vector of complex numbers: ``integrate`` takes it as any 1-D sequence
and returns it, and each recorded state, as a 1-D complex numpy array.  The
right-hand side ``f(t, y)`` receives ``y`` as a ``list`` of Python
``complex`` and may return any sequence of the same length.  The states this
package integrates have four to a few dozen components, where a numpy call
costs more than the arithmetic it does, so the stages are formed component
by component in Python.

Step control is the usual embedded-pair error test: the RMS over all
components of the local error estimate, each scaled by
``atol + rtol * max(|y|, |y_new|)``, must not exceed 1.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np


class SingularityEncounteredError(Exception):
    """Step size underflowed; carries the estimated location."""

    def __init__(self, t_estimate: complex, message: str = ""):
        self.t_estimate = t_estimate
        super().__init__(message or f"step-size underflow near t = {t_estimate}")


#: step count after which integrate gives up
MAX_STEPS = 10 ** 6

_OVERFLOW = "state overflow during integration"

# Dormand & Prince (1980): stage abscissae C, stage weights A (row i gives
# stage i + 1's input y + h * sum_j A[i][j] k_{j+1}), and E, the fifth-order
# minus the fourth-order weights, so y5 - y4 = h * sum_j E[j] k_{j+1}.  The
# zero entries (A7,2 and E2) are left out of the stages below.
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
# the fifth-order weights: the last stage is evaluated at the new point
A71, A73, A74, A75, A76 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
E1, E3, E4, E5, E6, E7 = (A71 - 5179 / 57600, A73 - 7571 / 16695,
                          A74 - 393 / 640, A75 + 92097 / 339200,
                          A76 - 187 / 2100, -1 / 40)


@dataclass
class Trajectory:
    """Accepted integration nodes (complex times and states)."""

    times: List[complex] = field(default_factory=list)
    states: List[np.ndarray] = field(default_factory=list)

    def append(self, t: complex, y: Sequence[complex]):
        self.times.append(t)
        self.states.append(np.array(y, dtype=complex))


def integrate(f: Callable[[complex, List[complex]], Sequence[complex]],
              t0: complex, y0, t1: complex,
              rtol: float = 1e-10, atol: float = 1e-12,
              record: bool = False) -> Tuple[np.ndarray, Trajectory]:
    """Integrate dy/dt = f(t, y) from t0 to t1 along the straight segment."""
    y0 = np.array(y0, dtype=complex)
    if y0.ndim != 1:
        raise ValueError(f"the state must be one-dimensional, not {y0.shape}")
    traj = Trajectory()
    if record:
        traj.append(t0, y0)
    total = t1 - t0
    length = abs(total)
    if length == 0:
        return y0, traj
    if not np.all(np.isfinite(y0)):
        raise SingularityEncounteredError(t0, _OVERFLOW)
    y = y0.tolist()
    n = len(y)
    direction = total / length
    s = 0.0                       # arclength progressed along the segment
    hs = min(length, length / 100 + 1e-8)
    k1 = f(t0, y)
    for _ in range(MAX_STEPS):
        if s >= length:
            return np.array(y, dtype=complex), traj
        # the controller's step, before it is cut to the segment end
        if hs <= 1e-14 * length:
            raise SingularityEncounteredError(t0 + s * direction)
        hs = min(hs, length - s)
        h = hs * direction
        t = t0 + s * direction
        b21 = h * A21
        k2 = f(t + C2 * h, [a + b21 * p for a, p in zip(y, k1)])
        b31, b32 = h * A31, h * A32
        k3 = f(t + C3 * h, [a + (b31 * p + b32 * q)
                            for a, p, q in zip(y, k1, k2)])
        b41, b42, b43 = h * A41, h * A42, h * A43
        k4 = f(t + C4 * h, [a + (b41 * p + b42 * q + b43 * r)
                            for a, p, q, r in zip(y, k1, k2, k3)])
        b51, b52, b53, b54 = h * A51, h * A52, h * A53, h * A54
        k5 = f(t + C5 * h, [a + (b51 * p + b52 * q + b53 * r + b54 * u)
                            for a, p, q, r, u in zip(y, k1, k2, k3, k4)])
        b61, b62, b63, b64, b65 = h * A61, h * A62, h * A63, h * A64, h * A65
        k6 = f(t + h, [a + (b61 * p + b62 * q + b63 * r + b64 * u + b65 * v)
                       for a, p, q, r, u, v in zip(y, k1, k2, k3, k4, k5)])
        b71, b73, b74, b75, b76 = h * A71, h * A73, h * A74, h * A75, h * A76
        # the last stage input is the fifth-order solution
        y5 = [a + (b71 * p + b73 * r + b74 * u + b75 * v + b76 * w)
              for a, p, r, u, v, w in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t + h, y5)
        sq = 0.0
        try:
            for a, b, p, r, u, v, w, x in zip(y, y5, k1, k3, k4, k5, k6, k7,
                                              strict=True):
                ya, yb = abs(a), abs(b)
                d = h * (E1 * p + E3 * r + E4 * u + E5 * v + E6 * w + E7 * x) \
                    / (atol + rtol * (ya if ya > yb else yb))
                sq += d.real * d.real + d.imag * d.imag
            err = math.sqrt(sq / n)
        except (OverflowError, ZeroDivisionError):
            # |y5| beyond the float range, or a zero scale (atol = 0 at a
            # zero component): an estimate that cannot be formed rejects
            # the step, as a nan one does below
            err = math.nan
        if err <= 1.0:
            s += hs
            y = y5
            k1 = k7  # FSAL
            if record:
                traj.append(t1 if s >= length else t0 + s * direction, y)
            if not all(map(cmath.isfinite, y)):
                raise SingularityEncounteredError(t0 + s * direction,
                                                  _OVERFLOW)
        if err > 0:
            factor = 0.9 * (1.0 / err) ** 0.2
        else:
            # a zero estimate grows the step; a nan one (the stages
            # overflowed) rejects it like any other failed step
            factor = 5.0 if err == 0 else 0.2
        hs *= min(5.0, max(0.2, factor))
    raise SingularityEncounteredError(t0 + s * direction,
                                      "max step count exceeded")
