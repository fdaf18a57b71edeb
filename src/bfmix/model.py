"""Hamiltonian model: parameters, equations of motion, closed-form solutions.

Everything derives from the single normalized Hamiltonian

    H = p0^2/2 + sum p_j^2/2 + w0 q0^2 + sum w_j q_j^2
        - g q0^2 sum q_j^2 - q0^4/2 + C0^2/(2 q0^2) + sum C_j^2/(2 q_j^2),

so the three particular-solution families and all variational machinery
share one vector field.  Each closed form's ``*_residual`` compares its
q'' with dp/dt of the field; q' = p holds by construction of p.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from . import elliptic
from .odeint import integrate


class InvalidParameterError(ValueError):
    pass


class NoSeparatrixError(ValueError):
    pass


class DegenerateAmplitudeWarning(UserWarning):
    pass


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ModelParams:
    """Normalized parameters of the Hamiltonian.

    The condensate's angular constant is held as C0^2, the form in which it
    enters H (through C0^2/(2 q0^2)); it need not have a rational root.  The
    transverse C_j stay signed: case 1 reads their sum.
    """

    omega0: Fraction
    omegas: Tuple[Fraction, ...]
    C0_sq: Fraction
    Cs: Tuple[Fraction, ...]
    g_bf: Fraction

    def __post_init__(self):
        if self.omega0 <= 0 or any(w <= 0 for w in self.omegas):
            raise InvalidParameterError("frequencies must be positive")
        if len(self.omegas) != len(self.Cs):
            raise InvalidParameterError("omegas and Cs must have equal length")
        if self.C0_sq < 0:
            raise InvalidParameterError("C0^2 must be nonnegative")

    @property
    def n_f(self) -> int:
        return len(self.omegas)


def make_params(omega0, omegas, C0_sq, Cs, g_bf) -> ModelParams:
    return ModelParams(_fr(omega0), tuple(_fr(w) for w in omegas),
                       _fr(C0_sq), tuple(_fr(c) for c in Cs), _fr(g_bf))


@dataclass(frozen=True)
class PhaseState:
    q0: complex
    p0: complex
    qs: Tuple[complex, ...]
    ps: Tuple[complex, ...]
    t: complex = 0.0


def _float_params(p: ModelParams):
    """(w0, g, C0^2, w_j, C_j^2) as floats, converted once.  A C^2 that is
    exactly zero is None: its centrifugal term is absent, and so is the
    division by q0 or q_j that it would need."""
    return (float(p.omega0), float(p.g_bf),
            float(p.C0_sq) if p.C0_sq != 0 else None,
            [float(w) for w in p.omegas],
            [float(c * c) if c != 0 else None for c in p.Cs])


def _energy(p: ModelParams):
    """H as a float function of a state vector (q0, p0, q_1.., p_1..).

    The halved centrifugal constants C0^2/2 and C_j^2/2 are folded once,
    outside the closure (None where C^2 is zero, so that the term is
    absent); inside, each square q^2 is formed once and reused, and the
    quartic is the product q0^2 q0^2, not a complex power."""
    w0, g, c0sq, ws, cj_sq = _float_params(p)
    n_f = len(ws)
    half_c0sq = c0sq / 2 if c0sq is not None else None
    modes = [(wj, cj / 2 if cj is not None else None)
             for wj, cj in zip(ws, cj_sq)]

    def energy(y) -> complex:
        q0, p0 = y[0], y[1]
        if half_c0sq is not None and q0 == 0:
            raise ZeroDivisionError("q0 = 0 with C0 != 0")
        q0_sq = q0 * q0
        total = p0 * p0 / 2 + w0 * q0_sq - q0_sq * q0_sq / 2
        if half_c0sq is not None:
            total += half_c0sq / q0_sq
        sum_qj_sq = 0j
        for j, (wj, half_cj) in enumerate(modes):
            qj, pj = y[2 + j], y[2 + n_f + j]
            if half_cj is not None and qj == 0:
                raise ZeroDivisionError(f"q_{j + 1} = 0 with C_{j + 1} != 0")
            qj_sq = qj * qj
            total += pj * pj / 2 + wj * qj_sq
            if half_cj is not None:
                total += half_cj / qj_sq
            sum_qj_sq += qj_sq
        total -= g * q0_sq * sum_qj_sq
        return total
    return energy


def _vector_field(p: ModelParams):
    """The canonical vector field as a float function f(t, y) of a state
    vector y = (q0, p0, q_1.., p_1..), a list of complex; returns the
    derivatives as a list.

    The constants -2 w0, 2g and -2 w_j are folded once, outside the
    closure, beside the floats C0^2 and C_j^2 (None where zero: an absent
    term is never divided).  Inside, the state is indexed, each square is
    formed once, the polynomial part of each force is one factor times q0
    or q_j, and the cubes under C^2 are products, not complex powers, so a
    state beyond the float range overflows to inf or nan instead of
    raising."""
    w0, g, c0sq, ws, cj_sq = _float_params(p)
    n_f = len(ws)
    m2w0, two_g = -2 * w0, 2 * g
    modes = [(2 + j, -2 * wj, cj) for j, (wj, cj) in enumerate(zip(ws, cj_sq))]

    def f(t, y) -> list:
        q0 = y[0]
        q0_sq = q0 * q0
        # dp_j = (-2 w_j + 2g q0^2) q_j [+ C_j^2 / q_j^3]
        gq0_sq = two_g * q0_sq
        sum_qj_sq = 0j
        out = [y[1], None]
        out += y[2 + n_f:]
        for i, m2wj, cj in modes:
            qj = y[i]
            qj_sq = qj * qj
            sum_qj_sq += qj_sq
            if cj is None:
                out.append((m2wj + gq0_sq) * qj)
            else:
                out.append((m2wj + gq0_sq) * qj + cj / (qj * qj_sq))
        # dp0 = (-2 w0 + 2 q0^2 + 2g sum q_j^2) q0 [+ C0^2 / q0^3]
        dp0 = (m2w0 + 2 * q0_sq + two_g * sum_qj_sq) * q0
        if c0sq is not None:
            dp0 += c0sq / (q0 * q0_sq)
        out[1] = dp0
        return out
    return f


def hamiltonian(p: ModelParams, s: PhaseState) -> complex:
    return _energy(p)(state_to_vector(s))


def eom(p: ModelParams, s: PhaseState) -> PhaseState:
    """Canonical vector field; derivatives are returned in the state slots."""
    return vector_to_state(_vector_field(p)(s.t, state_to_vector(s)), s.t)


def state_to_vector(s: PhaseState) -> List[complex]:
    return [complex(v) for v in (s.q0, s.p0, *s.qs, *s.ps)]


def vector_to_state(v: Sequence[complex], t: complex = 0.0) -> PhaseState:
    n_f = (len(v) - 2) // 2
    return PhaseState(complex(v[0]), complex(v[1]),
                      tuple(v[2:2 + n_f]), tuple(v[2 + n_f:]), t)


def solution_case1(p: ModelParams, h_j: Sequence, t0: complex, t: complex) -> PhaseState:
    """Invariant-plane solution for C0 = 0: q0 = p0 = 0 and

    q_j^2 = h_j/(2 w_j) + sqrt(C_j^2/(2 w_j) - h_j^2/(4 w_j^2)) sinh(2i sqrt(2 w_j)(t - t0)).
    """
    if p.C0_sq != 0:
        raise InvalidParameterError("case 1 requires C0 = 0")
    if any(c == 0 for c in p.Cs):
        raise InvalidParameterError("case 1 requires every C_j nonzero")
    if len(h_j) != p.n_f:
        raise InvalidParameterError(
            f"{len(h_j)} energies h_j for {p.n_f} transverse modes")
    qs, ps = [], []
    for j in range(p.n_f):
        wj = float(p.omegas[j])
        cj = float(p.Cs[j])
        hj = float(_fr(h_j[j]))
        amp_sq = cj * cj / (2 * wj) - hj * hj / (4 * wj * wj)
        if amp_sq == 0:
            warnings.warn(f"degenerate oscillation amplitude for j={j + 1}",
                          DegenerateAmplitudeWarning)
        amp = cmath.sqrt(amp_sq)
        mu = 2j * math.sqrt(2 * wj)
        qj_sq = hj / (2 * wj) + amp * cmath.sinh(mu * (t - t0))
        if qj_sq == 0:
            raise InvalidParameterError(
                f"q_{j + 1} vanishes at t = {t}; centrifugal term undefined")
        qj = cmath.sqrt(qj_sq)
        dqj_sq = amp * mu * cmath.cosh(mu * (t - t0))
        qs.append(qj)
        ps.append(dqj_sq / (2 * qj))
    return PhaseState(0.0, 0.0, tuple(qs), tuple(ps), t)


def solution_case2(p: ModelParams, e: "elliptic.EllipticData", t: complex) -> PhaseState:
    """Invariant-plane solution for C_j = 0: q0^2 = (2/3) w0 + wp(t), q_j = p_j = 0.

    The square-root branch is fixed by Re(q0 t) >= 0, which matches
    q0 ~ +1/t at the pole and stays continuous wherever q0^2 keeps a
    positive real part (evaluation near lattice points is the caller's
    responsibility).
    """
    if any(c != 0 for c in p.Cs):
        raise InvalidParameterError("case 2 requires every C_j = 0")
    wp, wp_prime = elliptic.wp_numeric_with_derivative(e, t)
    q0_sq = 2 * float(p.omega0) / 3 + wp
    q0 = cmath.sqrt(q0_sq)
    # branch continuity along the ray from the pole: near 0 require q0 ~ 1/t
    if (q0 * t).real < 0:
        q0 = -q0
    p0 = wp_prime / (2 * q0)
    return PhaseState(q0, p0, (0.0,) * p.n_f, (0.0,) * p.n_f, t)


def separatrix_energy(omega0, C0_sq) -> float:
    """Largest real root h* of the discriminant cubic

    f(h) = h^3 - w0^2 h^2 - 9 C0^2 w0 h + 8 C0^2 w0^3 + (27/4) C0^4,

    whose discriminant is C0^2 (8 w0^3 - 27 C0^2)^3 / 16.  The rational sign
    of 8 w0^3 - 27 C0^2 picks the form: the cosine form of the largest of
    three real roots where it is positive, Cardano's form of the one real
    root where it is negative, and the double root 4 w0^2/3 where it is
    zero.  f is homogeneous when w0, C0^2 and h weigh 1, 3 and 2, so the
    first two are formed on f scaled to w0 = 1 or C0^2 = 1, and polished by
    one Newton step on f itself; OverflowError is raised where f leaves the
    float range.
    """
    w0q, c0q = _fr(omega0), _fr(C0_sq)
    curve = 8 * w0q ** 3 - 27 * c0q
    if curve == 0:
        return float(4 * w0q ** 2 / 3)
    if curve > 0:
        w, c, l_sq = 1.0, float(c0q / w0q ** 3), float(w0q ** 2)
    else:
        w, c = float(w0q ** 3 / c0q) ** (1 / 3), 1.0
        l_sq = float(c0q) ** (2 / 3)
    # h = l^2 (x + w^2/3) reduces the scaled cubic to x^3 + p x + q
    p = -9 * c * w - w ** 4 / 3
    q = 5 * c * w ** 3 + 6.75 * c ** 2 - 2 * w ** 6 / 27
    if curve > 0:
        m = 2 * math.sqrt(-p / 3)
        cos3 = max(-1.0, min(1.0, 3 * q / (p * m)))
        x = m * math.cos(math.acos(cos3) / 3)
    else:
        # the cube root of the larger argument, u, then v = -p / (3 u)
        root = math.sqrt(max(q * q / 4 + p ** 3 / 27, 0.0))
        arg = -q / 2 - math.copysign(root, q)
        u = math.copysign(abs(arg) ** (1 / 3), arg)
        x = u - p / (3 * u)
    h_star = l_sq * (x + w ** 2 / 3)
    # one Newton polish in real arithmetic
    w0, c0sq = float(w0q), float(c0q)
    const = 8 * c0sq * w0 ** 3 + 6.75 * c0sq ** 2
    f = lambda x: ((x - w0 ** 2) * x - 9 * c0sq * w0) * x + const
    df = lambda x: (3 * x - 2 * w0 ** 2) * x - 9 * c0sq * w0
    if df(h_star) != 0:
        h_star -= f(h_star) / df(h_star)
    if not math.isfinite(h_star):
        raise OverflowError(f"h* = {h_star}: the discriminant cubic leaves "
                            "the float range")
    return h_star


def separatrix_scale(omega0, C0_sq) -> Tuple[float, float]:
    """(a, h*) of the separatrix, a = sqrt(4 w0^2 - 3 h*)/3; raises
    NoSeparatrixError when 4 w0^2 - 3 h* <= 0.  That holds only on the curve
    27 C0^2 = 8 w0^3, decided over the rationals: for the cubic f of
    ``separatrix_energy``, f(4 w0^2/3) = (27/4) (C0^2 - 8 w0^3/27)^2 >= 0
    and f'(4 w0^2/3) = (w0/3) (8 w0^3 - 27 C0^2) is positive wherever f has
    three real roots, so elsewhere 4 w0^2/3 lies above h*.  The float test
    stays for points so close to the curve that the rounded h* meets it."""
    w0q, c0q = _fr(omega0), _fr(C0_sq)
    if 27 * c0q == 8 * w0q ** 3:
        raise NoSeparatrixError(
            f"no separatrix on 27 C0^2 = 8 w0^3: h* = 4 w0^2/3 = "
            f"{4 * w0q ** 2 / 3} is a double root of the discriminant cubic, "
            "so a = 0")
    w0 = float(w0q)
    h_star = separatrix_energy(w0q, c0q)
    disc = 4 * w0 ** 2 - 3 * h_star
    if disc <= 0:
        raise NoSeparatrixError(f"4 w0^2 - 3 h* = {disc} <= 0")
    return math.sqrt(disc) / 3, h_star


def separatrix_slope(a: float, t: complex) -> complex:
    """d/dt of q0^2 on the separatrix: -6 a sqrt(3a) cosh / sinh^3 at
    sqrt(3a) t."""
    root3a = math.sqrt(3 * a)
    sh = cmath.sinh(root3a * t)
    return -6 * a * root3a * cmath.cosh(root3a * t) / sh ** 3


def separatrix_case3(omega0, C0_sq, t: complex):
    """Separatrix of the one-degree q0 subsystem:

    q0^2 = (2/3) w0 + a + 3a / sinh^2(sqrt(3a) t),  a = sqrt(4 w0^2 - 3 h*)/3.

    Returns (q0, p0, a, h_star).
    """
    a, h_star = separatrix_scale(omega0, C0_sq)
    return (*separatrix_state(float(omega0), a, t), a, h_star)


def separatrix_state(w0: float, a: float, t: complex
                     ) -> Tuple[complex, complex]:
    """(q0, p0) of ``separatrix_case3`` at time t, given its scale a."""
    sh = cmath.sinh(math.sqrt(3 * a) * t)
    if sh == 0:
        raise NoSeparatrixError("separatrix pole at t = 0")
    q0_sq = 2 * w0 / 3 + a + 3 * a / (sh * sh)
    q0 = cmath.sqrt(q0_sq)
    if (q0 * t).real < 0:   # branch with q0 ~ +1/t near the pole
        q0 = -q0
    return q0, separatrix_slope(a, t) / (2 * q0)


DEFAULT_TOL = 1e-10


def integrate_orbit(p: ModelParams, s0: PhaseState, t_end: complex,
                    tol: float = DEFAULT_TOL):
    """Integrate the full system from s0.t to t_end along a straight segment.

    Returns (trajectory, max_energy_drift).
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    energy = _energy(p)
    y0 = state_to_vector(s0)
    h0 = energy(y0)
    _, traj = integrate(_vector_field(p), s0.t, y0, t_end, rtol=tol,
                        atol=tol * 1e-2)
    drift = max(abs(energy(y) - h0) for y in traj.states)
    return traj, drift


def max_residual(residuals: Iterable[float]) -> float:
    """The largest of the residuals, 0.0 if there are none, and nan if one
    is nan: a residual that is not a number meets no tolerance."""
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return r
        worst = max(worst, r)
    return worst


def _root_second_derivative(q: complex, w_dot_sq: complex,
                            w_ddot: complex) -> complex:
    """q'' for q = sqrt(w), from w'^2 and w'': w''/(2q) - w'^2/(4 q^3)."""
    return w_ddot / (2 * q) - w_dot_sq / (4 * (q * q) * q)


def case1_residual(p: ModelParams, h_j: Sequence, t0: complex,
                   t: complex) -> float:
    """Residual max_j |q_j'' - dp_j/dt| of the oscillator-plane solution.

    Derivatives of the closed form are taken analytically, so the residual
    measures only whether the formula solves the equations.  q_j' = p_j
    holds by construction, which ``TestCase1Solution`` checks by finite
    differences.
    """
    s = solution_case1(p, h_j, t0, t)
    rhs = eom(p, s)
    residuals = []
    for j in range(p.n_f):
        wj = float(p.omegas[j])
        cj = float(p.Cs[j])
        hj = float(_fr(h_j[j]))
        amp = cmath.sqrt(cj * cj / (2 * wj) - hj * hj / (4 * wj * wj))
        mu = 2j * math.sqrt(2 * wj)
        w_dot = amp * mu * cmath.cosh(mu * (t - t0))
        w_ddot = amp * mu * mu * cmath.sinh(mu * (t - t0))
        qj_ddot = _root_second_derivative(s.qs[j], w_dot ** 2, w_ddot)
        residuals.append(abs(qj_ddot - rhs.ps[j]))
    return max_residual(residuals)


def case2_residual(p: ModelParams, e, t: complex) -> float:
    """Residual |q0'' - dp0/dt| of the elliptic invariant-plane solution.

    ``q0^2 = (2/3) w0 + wp`` is differentiated twice through the Weierstrass
    relations ``wp'' = 6 wp^2 - g2/2`` and ``wp'^2 = 4 wp^3 - g2 wp - g3``.
    q0' = p0 holds by construction, which ``TestCase2Solution`` checks by
    finite differences.
    """
    s = solution_case2(p, e, t)
    wp = s.q0 * s.q0 - 2 * float(p.omega0) / 3
    g2, g3 = float(e.g2), float(e.g3)
    wp_second = 6 * wp * wp - g2 / 2
    wp_prime_sq = 4 * wp ** 3 - g2 * wp - g3
    q0_ddot = _root_second_derivative(s.q0, wp_prime_sq, wp_second)
    return abs(q0_ddot - eom(p, s).p0)


def separatrix_residual(p: ModelParams, a: float, t: complex) -> float:
    """Residual |q0'' - dp0/dt| of the separatrix in the one-degree q0
    equation of ``p`` (no transverse modes), whose scale ``a`` is
    ``separatrix_scale(p.omega0, p.C0_sq)[0]``.  q0' = p0 holds by
    construction, which ``TestSeparatrix`` checks by finite differences."""
    q0, p0 = separatrix_state(float(p.omega0), a, t)
    root3a = math.sqrt(3 * a)
    sh = cmath.sinh(root3a * t)
    ch = cmath.cosh(root3a * t)
    u_ddot = 18 * a * a * (3 * ch ** 2 - sh ** 2) / sh ** 4
    q0_ddot = _root_second_derivative(q0, separatrix_slope(a, t) ** 2, u_ddot)
    return abs(q0_ddot - eom(p, PhaseState(q0, p0, (), (), t)).p0)
