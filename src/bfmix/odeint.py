"""Adaptive Dormand-Prince 8(5,3) integration for complex-valued ODEs.

Time runs along a straight segment in the complex plane.  The state is a
flat vector of complex numbers: ``integrate`` takes it as any 1-D sequence
and returns it, and each state of the trajectory it always records, as a
``list`` of Python ``complex``.  The right-hand side ``f(t, y)`` receives
``y`` in the same form and may return any sequence of the same length.

The states this package integrates have four to a few dozen components.
At that size a ``zip`` comprehension over the components costs more than
the arithmetic it does, and a numpy call more still: on a four-component
orbit, forming the stages that way took most of each step.  So each state
size ``n`` gets its own step kernel, generated on first use from the tableau
constants below and compiled once.  Every stage input is a list of ``n``
scalar expressions, every right-hand side value is unpacked into ``n``
locals, and the new solution and the error sums are written out the same
way.  Each sum adds its terms in stage order, so every ``n`` does the same
arithmetic per component.

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
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


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
# weights B, third-order weights BHH and ER, the fifth-order error weights.
# The last index of each name is the stage it weighs, and only the nonzero
# entries are written: ``_stages`` reads the pattern from the names.
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
BHH9 = 0.733846688281611857341361741547
BHH12 = 0.220588235294117647058823529412e-1

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
    states: List[List[complex]] = field(default_factory=list)

    def append(self, t: complex, y: List[complex]):
        self.times.append(t)
        self.states.append(list(y))


#: stages of a step; the last one is at the new point t + h
STAGES = 12


def _row(prefix: str, stop: int = STAGES + 1) -> List[int]:
    """The stages j < stop that have a constant ``{prefix}{j}``: the nonzero
    pattern of one row of the tableau."""
    return [j for j in range(1, stop) if f"{prefix}{j}" in globals()]


@functools.lru_cache(maxsize=None)
def _stages(n: int):
    """The step kernel for states of ``n`` components,

        stages(f, t, h, y, k1, atol, rtol) -> (y8, sq5, sq3):

    the eleven stages after ``k1``, the eighth-order solution ``y8`` and the
    scaled squared sums ``sq5`` and ``sq3`` of the fifth- and third-order
    error estimates, nan when they cannot be formed.  Its source is written
    out component by component from the tableau constants, and compiled
    once per ``n``; it holds only integers and the constants' names."""
    comps = range(n)

    def vector(fmt: str) -> str:
        return "[" + ", ".join(fmt.format(c=c) for c in comps) + "]"

    def combo(weights: Dict[int, str], c: int) -> str:
        """sum_j weights[j] * k_j at component c, in stage order."""
        return " + ".join(f"{w} * k{j}_{c}" for j, w in weights.items())

    lines = ["def stages(f, t, h, y, k1, atol, rtol):",
             f"    {vector('y_{c}')} = y",
             f"    {vector('k1_{c}')} = k1"]
    for i in range(2, STAGES + 1):
        a = {j: f"a{i}_{j}" for j in _row(f"A{i}", i)}
        lines += [f"    {w} = h * A{i}{j}" for j, w in a.items()]
        at = "t + h" if i == STAGES else f"t + C{i} * h"
        inputs = ", ".join(f"y_{c} + ({combo(a, c)})" for c in comps)
        lines.append(f"    {vector(f'k{i}_{{c}}')} = f({at}, [{inputs}])")
    b = {j: f"b{j}" for j in _row("B")}
    e = {j: f"e{j}" for j in _row("ER")}
    # the third-order solution differs from y8 where BHH is nonzero
    bhh = _row("BHH")
    d = {j: f"d{j}" if j in bhh else w for j, w in b.items()}
    lines += [f"    {w} = h * B{j}" for j, w in b.items()]
    lines += [f"    y8_{c} = y_{c} + ({combo(b, c)})" for c in comps]
    # the error weights are scaled by h before they meet the stages, as the
    # stage weights are, so that stages near the float range give a finite
    # estimate for a short step
    lines += [f"    {w} = h * ER{j}" for j, w in e.items()]
    lines += [f"    d{j} = b{j} - h * BHH{j}" for j in b if j in bhh]
    lines += ["    try:", "        sq5 = sq3 = 0.0"]
    for c in comps:
        lines += [
            f"        ya, yb = abs(y_{c}), abs(y8_{c})",
            "        sk = atol + rtol * (ya if ya > yb else yb)",
            f"        r = ({combo(e, c)}) / sk",
            "        sq5 += r.real * r.real + r.imag * r.imag",
            f"        r = ({combo(d, c)}) / sk",
            "        sq3 += r.real * r.real + r.imag * r.imag"]
    lines += [
        "    except (OverflowError, ZeroDivisionError):",
        # |y8| beyond the float range, or a zero scale (atol = 0 at a zero
        # component): the estimate cannot be formed
        "        sq5 = sq3 = math.nan",
        f"    return {vector('y8_{c}')}, sq5, sq3"]
    namespace = {}
    exec(compile("\n".join(lines), f"<dop853 stages, n = {n}>", "exec"),
         globals(), namespace)
    return namespace["stages"]


def integrate(f: Callable[[complex, List[complex]], Sequence[complex]],
              t0: complex, y0, t1: complex,
              rtol: float = 1e-10, atol: float = 1e-12
              ) -> Tuple[List[complex], Trajectory]:
    """Integrate dy/dt = f(t, y) from t0 to t1 along the straight segment.
    Returns y(t1) and the trajectory of accepted nodes, t0 to exactly t1.

    A right-hand side should overflow to inf or nan, not raise: a stage
    beyond the float range then rejects the step instead of ending the
    integration."""
    try:
        y = [complex(v) for v in y0]
    except TypeError:
        raise ValueError("the state must be a one-dimensional sequence of "
                         "numbers") from None
    traj = Trajectory()
    traj.append(t0, y)
    total = t1 - t0
    length = abs(total)
    if length == 0:
        return y, traj
    if not all(map(cmath.isfinite, y)):
        raise SingularityEncounteredError(t0, _OVERFLOW)
    n = len(y)
    stages = _stages(n)
    direction = total / length
    s = 0.0                       # arclength progressed along the segment
    hs = min(length, length / 100 + 1e-8)
    k1 = f(t0, y)
    for _ in range(MAX_STEPS):
        if s >= length:
            return y, traj
        # the controller's step, before it is cut to the segment end
        if hs <= 1e-14 * length:
            raise SingularityEncounteredError(t0 + s * direction)
        hs = min(hs, length - s)
        h = hs * direction
        t = t0 + s * direction
        y8, sq5, sq3 = stages(f, t, h, y, k1, atol, rtol)
        den = sq5 + 0.01 * sq3
        if den == 0:
            err = 0.0
        elif den < math.inf:
            err = sq5 / math.sqrt(n * den)
        else:
            # an infinite sq3 would give err = 0, and an estimate that could
            # not be formed is nan: either rejects the step
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
