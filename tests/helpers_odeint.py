"""Reference DOP853 stepper for the tests of ``bfmix.odeint``.

This is the numpy form of the integrator: the stages are the rows of the
tableau as a matrix, applied to the stack of stage values with ``@``, on a
state array of any shape.  ``bfmix.odeint.integrate`` forms the same stages
component by component, in straight-line code it generates per state size.
The two share the tableau constants (both read them by name), the step
law and the rejection rules, but none of the arithmetic, so the tests can
require equal right-hand-side calls and node times and states that agree
to rounding.

Here ``f`` receives the state as an array in its own shape and returns an
array of that shape.
"""
import math
from typing import Callable, Tuple

import numpy as np

from bfmix import odeint
from bfmix.odeint import MAX_STEPS, SingularityEncounteredError, Trajectory

#: stages per step: twelve, then the right-hand side at the new point
STAGES = 13


def _named(name):
    """A tableau constant of ``bfmix.odeint``; an entry it omits is zero."""
    return getattr(odeint, name, 0.0)


#: abscissae of the 13 stages; the last is the FSAL stage at the new point
C = np.array([0.0] + [_named(f"C{i}") for i in range(2, 12)] + [1.0, 1.0])
#: strictly lower-triangular stage matrix: stage i's input (from 0) is
#: y + h * (row i against the i stages before it).  Row 12 holds the
#: eighth-order weights, so the last stage input is the new solution.
A = np.array([[_named(f"A{i + 1}{j + 1}") if j < i else 0.0
               for j in range(STAGES)] for i in range(STAGES - 1)]
             + [[_named(f"B{j + 1}") for j in range(12)] + [0.0]])
#: eighth-order weights of the 12 stages
B = A[12, :12]
#: eighth- minus third-order weights: the third-order solution weighs
#: stages 1, 9 and 12 only
E3 = B - np.array([_named(f"BHH{j + 1}") for j in range(12)])
#: fifth-order error weights
E5 = np.array([_named(f"ER{j + 1}") for j in range(12)])


def integrate_reference(f: Callable[[complex, np.ndarray], np.ndarray],
                        t0: complex, y0, t1: complex,
                        rtol: float = 1e-10, atol: float = 1e-12
                        ) -> Tuple[np.ndarray, Trajectory]:
    """Integrate dy/dt = f(t, y) from t0 to t1 along the straight segment."""
    y = np.array(y0, dtype=complex)
    traj = Trajectory()
    traj.append(t0, y)
    total = t1 - t0
    length = abs(total)
    if length == 0:
        return y, traj
    shape = y.shape
    y = y.reshape(-1)
    # one row per stage but the last; ``k_out`` views the rows in the
    # state's shape
    k = np.empty((STAGES - 1, y.size), dtype=complex)
    k_out = k.reshape((STAGES - 1,) + shape)
    direction = total / length
    s = 0.0                       # arclength progressed along the segment
    hs = min(length, length / 100 + 1e-8)
    k_out[0] = f(t0, y.reshape(shape))
    for _ in range(MAX_STEPS):
        if s >= length:
            return y.reshape(shape), traj
        # the controller's step, before it is cut to the segment end
        if hs <= 1e-14 * length:
            raise SingularityEncounteredError(t0 + s * direction)
        hs = min(hs, length - s)
        h = hs * direction
        t = t0 + s * direction
        h_a = h * A
        for i in range(1, STAGES):
            yi = y + h_a[i, :i] @ k[:i]
            # the last stage input is the eighth-order solution, whose
            # right-hand side waits for the step to be accepted
            if i < STAGES - 1:
                k_out[i] = f(t + C[i] * h, yi.reshape(shape))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
        r5 = ((h * E5) @ k) / scale
        r3 = ((h * E3) @ k) / scale
        sq5 = np.vdot(r5, r5).real
        den = sq5 + 0.01 * np.vdot(r3, r3).real
        if den == 0:
            err = 0.0
        elif den < math.inf:
            err = sq5 / math.sqrt(y.size * den)
        else:
            err = math.nan
        if err <= 1.0:
            s += hs
            y = yi
            traj.append(t1 if s >= length else t0 + s * direction,
                        y.reshape(shape))
            if not np.all(np.isfinite(y)):
                raise SingularityEncounteredError(
                    t0 + s * direction, "state overflow during integration")
            k_out[0] = f(t + h, y.reshape(shape))  # FSAL
        if err > 0:
            factor = 0.9 * err ** -0.125
        else:
            # a zero estimate grows the step; a nan one (the stages
            # overflowed) rejects it like any other failed step
            factor = 5.0 if err == 0 else 0.2
        hs *= min(5.0, max(0.2, factor))
    raise SingularityEncounteredError(t0 + s * direction,
                                      "max step count exceeded")
