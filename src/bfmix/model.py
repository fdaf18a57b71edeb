"""Hamiltonian model: parameters, equations of motion, closed-form solutions.

Everything derives from the single normalized Hamiltonian

    H = p0^2/2 + sum p_j^2/2 + w0 q0^2 + sum w_j q_j^2
        - g q0^2 sum q_j^2 - q0^4/2 + C0^2/(2 q0^2) + sum C_j^2/(2 q_j^2),

so the three particular-solution families and all variational machinery
share one vector field.  Each closed form's ``*_identity`` reduces the first
integral of its one-degree mode to a polynomial over Q, exactly zero where
the closed form solves the mode (``CLOSED_FORMS``).
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import elliptic, variational
from .odeint import integrate
from .series import as_fraction


class InvalidParameterError(ValueError):
    pass


class NoSeparatrixError(ValueError):
    pass


class DegenerateAmplitudeWarning(UserWarning):
    pass


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
    return ModelParams(as_fraction(omega0), tuple(map(as_fraction, omegas)),
                       as_fraction(C0_sq), tuple(map(as_fraction, Cs)),
                       as_fraction(g_bf))


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


def state_to_vector(s: PhaseState) -> List[complex]:
    return [complex(v) for v in (s.q0, s.p0, *s.qs, *s.ps)]


def _case1_mode(p: ModelParams, h_j: Sequence, j: int
                ) -> Tuple[float, complex, complex]:
    """(h_j/(2 w_j), amplitude, mu) of mode j of ``solution_case1``, where
    q_j^2 = h_j/(2 w_j) + amplitude sinh(mu (t - t0)) and mu = 2i sqrt(2 w_j);
    the amplitude is 0 exactly where its square is."""
    wj = float(p.omegas[j])
    cj = float(p.Cs[j])
    hj = float(as_fraction(h_j[j]))
    amp = cmath.sqrt(cj * cj / (2 * wj) - hj * hj / (4 * wj * wj))
    return hj / (2 * wj), amp, 2j * math.sqrt(2 * wj)


def _check_case1(p: ModelParams, h_j: Sequence):
    """Refuse a point off the oscillator plane, or one energy per mode."""
    if p.C0_sq != 0:
        raise InvalidParameterError("case 1 requires C0 = 0")
    if any(c == 0 for c in p.Cs):
        raise InvalidParameterError("case 1 requires every C_j nonzero")
    if len(h_j) != p.n_f:
        raise InvalidParameterError(
            f"{len(h_j)} energies h_j for {p.n_f} transverse modes")


def solution_case1(p: ModelParams, h_j: Sequence, t0: complex, t: complex) -> PhaseState:
    """Invariant-plane solution for C0 = 0: q0 = p0 = 0 and

    q_j^2 = h_j/(2 w_j) + sqrt(C_j^2/(2 w_j) - h_j^2/(4 w_j^2)) sinh(2i sqrt(2 w_j)(t - t0)).
    """
    _check_case1(p, h_j)
    qs, ps = [], []
    for j in range(p.n_f):
        centre, amp, mu = _case1_mode(p, h_j, j)
        if amp == 0:
            warnings.warn(f"degenerate oscillation amplitude for j={j + 1}",
                          DegenerateAmplitudeWarning)
        qj_sq = centre + amp * cmath.sinh(mu * (t - t0))
        if qj_sq == 0:
            raise InvalidParameterError(
                f"q_{j + 1} vanishes at t = {t}; centrifugal term undefined")
        qj = cmath.sqrt(qj_sq)
        dqj_sq = amp * mu * cmath.cosh(mu * (t - t0))
        qs.append(qj)
        ps.append(dqj_sq / (2 * qj))
    return PhaseState(0.0, 0.0, tuple(qs), tuple(ps), t)


def separatrix_constant(omega0, C0_sq) -> Fraction:
    """K = (8 w0^3 - 27 C0^2)/54 of ``separatrix_scale``, exactly; on the
    curve K = 0, where a = 0, raises NoSeparatrixError."""
    (p, q), (r, t) = (as_fraction(omega0).as_integer_ratio(),
                      as_fraction(C0_sq).as_integer_ratio())
    K = Fraction(8 * p ** 3 * t - 27 * r * q ** 3, 54 * q ** 3 * t)
    if K == 0:
        raise NoSeparatrixError(
            f"no separatrix on 27 C0^2 = 8 w0^3: h* = 4 w0^2/3 = "
            f"{Fraction(4 * p * p, 3 * q * q)} is a double root of the "
            "discriminant cubic, so a = 0")
    return K


def separatrix_scale(omega0, C0_sq) -> Tuple[float, float]:
    """(a, h*) of the separatrix, h* = 4 w0^2/3 - 3 a^2.  Its saddle
    u = q0^2 = 2 w0/3 + a solves u^2 (w0 - u) = C0^2/2, that is
    a^2 (a + w0) = K (``separatrix_constant``), rising from 0 for a > 0.
    As a = w0 s, s^2 (s + 1) = kappa = K/w0^3, rounded once, and Newton
    runs from a bound on the root chosen by the sign of K.  Where K > 0
    (kappa <= 4/27), min(sqrt(kappa), 1/3) bounds the positive root from
    above, where the cubic is convex, so the iterates decrease.  Where
    K < 0 there is no separatrix, but ``analyze case3`` answers (ROADMAP
    item 2) from the one real root s < -1: -1 - |kappa|^(1/3) bounds it
    from below, where the cubic rises and is concave, so the iterates rise.
    Either way the loop stops at the first iterate that does not move
    toward the root (a step can stay below half an ulp of s), and
    a = w0 |s|.  A kappa or h* beyond the float range raises OverflowError."""
    w0q, c0q = as_fraction(omega0), as_fraction(C0_sq)
    K = separatrix_constant(w0q, c0q)
    n, d = w0q.as_integer_ratio()   # kappa and w0^2 are rounded once
    kappa = K.numerator * d ** 3 / (K.denominator * n ** 3)
    if K > 0:
        if not kappa:
            raise NoSeparatrixError("K/w0^3 underflows a float: a rounds to 0")
        s, toward = min(math.sqrt(kappa), 1 / 3), -1.0
    else:
        s, toward = -1 - (-kappa) ** (1 / 3), 1.0
    while (toward * (nxt := s - (s * s * (s + 1) - kappa) / (s * (3 * s + 2)))
           > toward * s):
        s = nxt
    # at C0 = 0, s = 1/3 and 4/3 - 3 s^2 = 1.0: h* = w0^2 exactly
    h_star = n * n / (d * d) * (4 / 3 - 3 * s * s)
    if not math.isfinite(h_star):
        raise OverflowError(f"h* = {h_star} leaves the float range")
    return n / d * abs(s), h_star


def separatrix_slope(a: float, t: complex) -> complex:
    """d/dt of q0^2 on the separatrix: -6 a sqrt(3a) cosh / sinh^3 at
    sqrt(3a) t."""
    root3a = math.sqrt(3 * a)
    sh = cmath.sinh(root3a * t)
    return -6 * a * root3a * cmath.cosh(root3a * t) / sh ** 3


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




#: ``verify --which`` -> the identity that its closed form is checked by:
#: the first integral u'^2 = 8 u (E - V(u)) of one degree q of H at the
#: value E of its part of H, with u = q^2 and V(u) = w0 u - u^2/2 +
#: C0^2/(2u) for q0 and w_j u + C_j^2/(2u) for q_j.  The q0 plane's h
#: (``invariants_from_energy``, h* of ``separatrix_scale``) is 2E
CLOSED_FORMS = {
    "prop1": "u'^2 = 8 u (h_j - w_j u) - 4 C_j^2 at u = q_j^2 = "
             "h_j/(2 w_j) + beta S, S = sinh(mu t), u'^2 = mu^2 beta^2 "
             "(1 + S^2), mu^2 = -8 w_j, in Q[S, beta] mod "
             "beta^2 - C_j^2/(2 w_j) + h_j^2/(4 w_j^2)",
    "prop2": "u'^2 = 4 u^3 - 8 w0 u^2 + 4 h u - 4 C0^2 at u = q0^2 = "
             "2 w0/3 + wp, u'^2 = 4 wp^3 - g2 wp - g3, in Q[wp]",
    "separatrix": "u'^2 = 4 u^3 - 8 w0 u^2 + 4 h* u - 4 C0^2 at u = q0^2 = "
                  "2 w0/3 + a + 3 a v, v = 1/sinh^2(sqrt(3a) t), "
                  "u'^2 = 108 a^3 (v^3 + v^2), h* = 4 w0^2/3 - 3 a^2, in "
                  "Q[v, a] mod a^3 + w0 a^2 - K",
}

#: a polynomial over Q in (x, lam): (power of x, power of lam) -> coefficient
Poly = Dict[Tuple[int, int], Fraction]


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (i, k), c in p.items():
        for (j, m), d in q.items():
            out[i + j, k + m] = out.get((i + j, k + m), 0) + c * d
    return out


def _first_integral_residual(u: Poly, u_dot_sq: Poly, E: Poly, w, C_sq,
                             quartic: int, names: Tuple[str, str],
                             modulus: Sequence = ()) -> str:
    """u'^2 - 8 u (E - V(u)), V(u) = w u - quartic u^2/2 + C^2/(2u), for a
    closed form u and its u'^2 in (x, lam) = ``names``, with each power
    lam^k, k >= d, brought below lam^d by the monic modulus lam^d +
    modulus[d-1] lam^(d-1) + ... + modulus[0]; as text, highest powers
    first, and "0" exactly where the closed form solves the mode (given
    u' != 0, one differentiation gives the second-order equation)."""
    uu = _poly_mul(u, u)
    r: Poly = dict(u_dot_sq)
    for c, term in ((-8, _poly_mul(E, u)), (8 * w, uu),
                    (-4 * quartic, _poly_mul(uu, u)), (4 * C_sq, {(0, 0): 1})):
        for key, x in term.items():
            r[key] = r.get(key, 0) + c * x
    d = len(modulus)
    for k in range(max(k for _, k in r), d - 1, -1) if d else ():
        for i in [i for i, kk in r if kk == k]:
            c = r.pop((i, k))
            for m, mc in enumerate(modulus):
                r[i, k - d + m] = r.get((i, k - d + m), 0) - c * mc
    terms = [str(c) + "".join(f"*{n}" + (f"^{e}" if e > 1 else "")
                              for n, e in zip(names, powers) if e)
             for powers, c in sorted(r.items(), reverse=True) if c]
    return " + ".join(terms).replace("+ -", "- ") or "0"


def case1_identity(p: ModelParams, h_j: Sequence) -> Dict[str, str]:
    """{"q_j": residual} of each mode of ``solution_case1``'s orbit under
    CLOSED_FORMS["prop1"]; only beta^2 enters, so no root is taken."""
    _check_case1(p, h_j)
    out = {}
    for j, (w, c) in enumerate(zip(p.omegas, p.Cs)):
        h = as_fraction(h_j[j])
        beta_sq = c * c / (2 * w) - h * h / (4 * w * w)
        out[f"q{j + 1}"] = _first_integral_residual(
            {(0, 0): h / (2 * w), (1, 1): 1},
            {(0, 2): -8 * w, (2, 2): -8 * w}, {(0, 0): h}, w, c * c, 0,
            ("S", "beta"), (-beta_sq, 0))
    return out


def case2_identity(e: "elliptic.EllipticData") -> Dict[str, str]:
    """{"q0": residual} of the elliptic orbit under CLOSED_FORMS["prop2"],
    with the curve ``e`` and the offset of q0^2 - wp that the case-2 chain
    reads from ``variational.qbar0_series`` (wp has no t^0 term)."""
    qbar = variational.qbar0_series(e, 2)
    return {"q0": _first_integral_residual(
        {(0, 0): (qbar * qbar).coefficient(0), (1, 0): 1},
        {(3, 0): 4, (1, 0): -e.g2, (0, 0): -e.g3}, {(0, 0): e.h / 2},  # E
        e.omega0, e.C0_sq, 1, ("wp", "1"))}


def separatrix_identity(omega0, C0_sq) -> Dict[str, str]:
    """{"q0": residual} of the separatrix of ``separatrix_scale`` under
    CLOSED_FORMS["separatrix"], modulo a^3 + w0 a^2 - K with K of
    ``separatrix_constant``: whichever root a the float approximates."""
    w0, c0sq = as_fraction(omega0), as_fraction(C0_sq)
    K = separatrix_constant(w0, c0sq)
    return {"q0": _first_integral_residual(
        {(0, 0): 2 * w0 / 3, (0, 1): 1, (1, 1): 3},
        {(3, 3): 108, (2, 3): 108},
        {(0, 0): 2 * w0 * w0 / 3, (0, 2): Fraction(-3, 2)},    # E = h*/2
        w0, c0sq, 1, ("v", "a"), (-K, 0, w0))}
