"""Reference Dormand-Prince 5(4) stepper for the tests of ``bfmix.odeint``.

This is the numpy form of the integrator: the stages are the rows of the
tableau as a matrix, applied to the stack of stage values with ``@``, on a
state array of any shape.  ``bfmix.odeint.integrate`` forms the same stages
component by component on a list.  The two share the tableau, the step law
and the rejection rules, but none of the arithmetic, so the tests can
require equal right-hand-side calls and node times and states that agree to
rounding.

Here ``f`` receives the state as an array in its own shape and returns an
array of that shape.
"""
import math
from typing import Callable, Tuple

import numpy as np

from bfmix.odeint import MAX_STEPS, SingularityEncounteredError, Trajectory

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    # the fifth-order weights: the last stage is evaluated at the new point
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])

#: ``_A`` as a strictly lower-triangular matrix: stage i's input is
#: y + h * (row i against the i stages before it).  Complex, so that its
#: products with the complex stages need no cast, whatever the type of h.
_A_MATRIX = np.array([row + [0.0] * (7 - len(row)) for row in _A],
                     dtype=complex)
#: fifth-order minus fourth-order weights: y5 - y4 = h (_E @ stages)
_E = _A_MATRIX[6] - _B4


def integrate_reference(f: Callable[[complex, np.ndarray], np.ndarray],
                        t0: complex, y0, t1: complex,
                        rtol: float = 1e-10, atol: float = 1e-12,
                        record: bool = False) -> Tuple[np.ndarray, Trajectory]:
    """Integrate dy/dt = f(t, y) from t0 to t1 along the straight segment."""
    y = np.array(y0, dtype=complex)
    traj = Trajectory()
    if record:
        traj.append(t0, y)
    total = t1 - t0
    length = abs(total)
    if length == 0:
        return y, traj
    shape = y.shape
    y = y.reshape(-1)
    # one row per stage; ``k_out`` views the rows in the state's shape
    k = np.empty((7, y.size), dtype=complex)
    k_out = k.reshape((7,) + shape)
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
        h_a = h * _A_MATRIX
        for i in range(1, 7):
            yi = y + h_a[i, :i] @ k[:i]
            k_out[i] = f(t + _C[i] * h, yi.reshape(shape))
        # the last stage input is the fifth-order solution
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
        r = h * (_E @ k) / scale
        err = math.sqrt(np.vdot(r, r).real / r.size)
        if err <= 1.0:
            s += hs
            y = yi
            k[0] = k[6]  # FSAL
            if record:
                traj.append(t1 if s >= length else t0 + s * direction,
                            y.reshape(shape))
        if err > 0:
            factor = 0.9 * (1.0 / err) ** 0.2
        else:
            # a zero estimate grows the step; a nan one (the stages
            # overflowed) rejects it like any other failed step
            factor = 5.0 if err == 0 else 0.2
        hs *= min(5.0, max(0.2, factor))
        if not np.all(np.isfinite(y)):
            raise SingularityEncounteredError(t0 + s * direction,
                                              "state overflow during integration")
    raise SingularityEncounteredError(t0 + s * direction,
                                      "max step count exceeded")
