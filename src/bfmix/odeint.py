"""Adaptive Dormand-Prince 8(5,3) integration for complex-valued ODEs.

Time runs along a straight segment in the complex plane.  The state is a
flat vector of complex numbers: ``integrate`` takes it as any 1-D sequence
and returns it, and each state of the trajectory it always records, as a
1-D complex numpy array.  The right-hand side ``f(t, y)`` receives ``y`` as
a ``list`` of Python ``complex`` and may return any sequence of the same
length.  The states this package integrates have four to a few dozen
components, where a numpy call costs more than the arithmetic it does, so
the stages are formed component by component in Python.

The stepper is DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., II.10): twelve stages give an
eighth-order step, and the right-hand side at the new point of an accepted
step is the next step's first stage, so an accepted step costs 12 calls and
a rejected one 11.  Step control
uses Hairer's combined error estimate.  With each component's fifth- and
third-order error estimates divided by ``atol + rtol * max(|y|, |y_new|)``
and their squared moduli summed over the ``n`` components into ``e5^2`` and
``e3^2``, the step is accepted when

    err = e5^2 / sqrt(n * (e5^2 + 0.01 * e3^2)) <= 1,

and the next step is the last one times ``0.9 * err^(-1/8)``, clipped to
``[0.2, 5]``.  ``err`` is at most the RMS of the fifth-order estimate, and
falls below it as the third-order estimate grows.
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

# Dormand & Prince's 8(5,3) pair as in Hairer's dop853.f (Hairer, Norsett &
# Wanner, Solving ODEs I, 2nd ed., II.10): stage abscissae C, stage weights A
# (Aij weighs k_j in stage i's input y + h * sum_j Aij k_j), eighth-order
# weights B, third-order weights BHH at stages 1, 9 and 12, and ER, the
# fifth-order error weights.  Only the nonzero entries are written.
C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142

A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022
A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1

B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2

BHH1 = 0.244094488188976377952755905512
BHH2 = 0.733846688281611857341361741547
BHH3 = 0.220588235294117647058823529412e-1

ER1 = 0.1312004499419488073250102996e-1
ER6 = -0.1225156446376204440720569753e+1
ER7 = -0.4957589496572501915214079952
ER8 = 0.1664377182454986536961530415e+1
ER9 = -0.3503288487499736816886487290
ER10 = 0.3341791187130174790297318841
ER11 = 0.8192320648511571246570742613e-1
ER12 = -0.2235530786388629525884427845e-1


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
              rtol: float = 1e-10, atol: float = 1e-12
              ) -> Tuple[np.ndarray, Trajectory]:
    """Integrate dy/dt = f(t, y) from t0 to t1 along the straight segment.
    Returns y(t1) and the trajectory of accepted nodes, t0 to exactly t1.

    A right-hand side should overflow to inf or nan, not raise: a stage
    beyond the float range then rejects the step instead of ending the
    integration."""
    y0 = np.array(y0, dtype=complex)
    if y0.ndim != 1:
        raise ValueError(f"the state must be one-dimensional, not {y0.shape}")
    traj = Trajectory()
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
        # vi is a component of stage ki, a of y
        b21 = h * A21
        k2 = f(t + C2 * h, [a + b21 * v1 for a, v1 in zip(y, k1)])
        b31, b32 = h * A31, h * A32
        k3 = f(t + C3 * h, [a + (b31 * v1 + b32 * v2)
                            for a, v1, v2 in zip(y, k1, k2)])
        b41, b43 = h * A41, h * A43
        k4 = f(t + C4 * h, [a + (b41 * v1 + b43 * v3)
                            for a, v1, v3 in zip(y, k1, k3)])
        b51, b53, b54 = h * A51, h * A53, h * A54
        k5 = f(t + C5 * h, [a + (b51 * v1 + b53 * v3 + b54 * v4)
                            for a, v1, v3, v4 in zip(y, k1, k3, k4)])
        b61, b64, b65 = h * A61, h * A64, h * A65
        k6 = f(t + C6 * h, [a + (b61 * v1 + b64 * v4 + b65 * v5)
                            for a, v1, v4, v5 in zip(y, k1, k4, k5)])
        b71, b74, b75, b76 = h * A71, h * A74, h * A75, h * A76
        k7 = f(t + C7 * h, [a + (b71 * v1 + b74 * v4 + b75 * v5 + b76 * v6)
                            for a, v1, v4, v5, v6 in zip(y, k1, k4, k5, k6)])
        b81, b84, b85, b86, b87 = h * A81, h * A84, h * A85, h * A86, h * A87
        k8 = f(t + C8 * h, [a + (b81 * v1 + b84 * v4 + b85 * v5 + b86 * v6
                                 + b87 * v7)
                            for a, v1, v4, v5, v6, v7
                            in zip(y, k1, k4, k5, k6, k7)])
        b91, b94, b95, b96, b97, b98 = (h * A91, h * A94, h * A95, h * A96,
                                        h * A97, h * A98)
        k9 = f(t + C9 * h, [a + (b91 * v1 + b94 * v4 + b95 * v5 + b96 * v6
                                 + b97 * v7 + b98 * v8)
                            for a, v1, v4, v5, v6, v7, v8
                            in zip(y, k1, k4, k5, k6, k7, k8)])
        b101, b104, b105, b106, b107, b108, b109 = (
            h * A101, h * A104, h * A105, h * A106, h * A107, h * A108,
            h * A109)
        k10 = f(t + C10 * h, [a + (b101 * v1 + b104 * v4 + b105 * v5
                                   + b106 * v6 + b107 * v7 + b108 * v8
                                   + b109 * v9)
                              for a, v1, v4, v5, v6, v7, v8, v9
                              in zip(y, k1, k4, k5, k6, k7, k8, k9)])
        b111, b114, b115, b116, b117, b118, b119, b1110 = (
            h * A111, h * A114, h * A115, h * A116, h * A117, h * A118,
            h * A119, h * A1110)
        k11 = f(t + C11 * h, [a + (b111 * v1 + b114 * v4 + b115 * v5
                                   + b116 * v6 + b117 * v7 + b118 * v8
                                   + b119 * v9 + b1110 * v10)
                              for a, v1, v4, v5, v6, v7, v8, v9, v10
                              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
        b121, b124, b125, b126, b127, b128, b129, b1210, b1211 = (
            h * A121, h * A124, h * A125, h * A126, h * A127, h * A128,
            h * A129, h * A1210, h * A1211)
        k12 = f(t + h, [a + (b121 * v1 + b124 * v4 + b125 * v5 + b126 * v6
                             + b127 * v7 + b128 * v8 + b129 * v9
                             + b1210 * v10 + b1211 * v11)
                        for a, v1, v4, v5, v6, v7, v8, v9, v10, v11
                        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
        g1, g6, g7, g8, g9, g10, g11, g12 = (
            h * B1, h * B6, h * B7, h * B8, h * B9, h * B10, h * B11, h * B12)
        y8 = [a + (g1 * v1 + g6 * v6 + g7 * v7 + g8 * v8 + g9 * v9
                   + g10 * v10 + g11 * v11 + g12 * v12)
              for a, v1, v6, v7, v8, v9, v10, v11, v12
              in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
        # the error weights are scaled by h before they meet the stages, as
        # the stage weights are, so that stages near the float range give a
        # finite estimate for a short step
        e1, e6, e7, e8, e9, e10, e11, e12 = (
            h * ER1, h * ER6, h * ER7, h * ER8, h * ER9, h * ER10, h * ER11,
            h * ER12)
        d1, d9, d12 = g1 - h * BHH1, g9 - h * BHH2, g12 - h * BHH3
        sq5 = sq3 = 0.0
        try:
            for a, b, v1, v6, v7, v8, v9, v10, v11, v12 in zip(
                    y, y8, k1, k6, k7, k8, k9, k10, k11, k12, strict=True):
                ya, yb = abs(a), abs(b)
                sk = atol + rtol * (ya if ya > yb else yb)
                d = (e1 * v1 + e6 * v6 + e7 * v7 + e8 * v8 + e9 * v9
                     + e10 * v10 + e11 * v11 + e12 * v12) / sk
                sq5 += d.real * d.real + d.imag * d.imag
                # the third-order solution differs from y8 at stages 1, 9, 12
                d = (d1 * v1 + g6 * v6 + g7 * v7 + g8 * v8 + d9 * v9
                     + g10 * v10 + g11 * v11 + d12 * v12) / sk
                sq3 += d.real * d.real + d.imag * d.imag
            den = sq5 + 0.01 * sq3
            if den == 0:
                err = 0.0
            elif den < math.inf:
                err = sq5 / math.sqrt(n * den)
            else:
                # an infinite sq3 would give err = 0: an estimate beyond the
                # float range rejects the step, as a nan one does
                err = math.nan
        except (OverflowError, ZeroDivisionError):
            # |y8| beyond the float range, or a zero scale (atol = 0 at a
            # zero component): an estimate that cannot be formed rejects
            # the step, as a nan one does below
            err = math.nan
        if err <= 1.0:
            s += hs
            y = y8
            traj.append(t1 if s >= length else t0 + s * direction, y)
            if not all(map(cmath.isfinite, y)):
                raise SingularityEncounteredError(t0 + s * direction,
                                                  _OVERFLOW)
            k1 = f(t + h, y)  # FSAL
        if err > 0:
            factor = 0.9 * err ** -0.125
        else:
            # a zero estimate grows the step; a nan one (the stages
            # overflowed) rejects it like any other failed step
            factor = 5.0 if err == 0 else 0.2
        hs *= min(5.0, max(0.2, factor))
    raise SingularityEncounteredError(t0 + s * direction,
                                      "max step count exceeded")
