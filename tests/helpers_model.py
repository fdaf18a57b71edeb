"""Physical parameters and their rescaling to the normalized ``ModelParams``,
and float oracles of the closed-form orbits.

The decision path starts from ``ModelParams``; the rescaling that removes the
masses and g_BB is kept here to check that it lands on that form.

The oracles evaluate the closed forms of ``bfmix.model`` in floats, with the
canonical vector field (``eom``), the elliptic orbit (``solution_case2``)
and the separatrix (``separatrix_state``).  Each ``*_residual`` compares
its closed form's q'' with dp/dt of the field; q' = p holds by construction
of p.  ``bfmix verify`` proves the same closed forms exactly; the tests
compare orbits and integrators against these.
"""
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from bfmix import elliptic
from bfmix.model import (InvalidParameterError, ModelParams,
                         NoSeparatrixError, PhaseState, _case1_mode,
                         _vector_field, separatrix_slope, solution_case1,
                         state_to_vector)
from bfmix.series import _sqrt_fraction


@dataclass(frozen=True)
class RawParams:
    """Physical parameters before the rescaling that removes masses and g_BB."""

    m_B: Fraction
    m_F: Fraction
    g_BB: Fraction
    g_BF: Fraction
    omega0: Fraction
    omegas: Tuple[Fraction, ...]
    C0_sq: Fraction
    Cs: Tuple[Fraction, ...]

    def __post_init__(self):
        if not (self.m_B > 0 and self.m_F > 0 and self.omega0 > 0
                and all(w > 0 for w in self.omegas)):
            raise InvalidParameterError("masses and frequencies must be positive")
        if len(self.omegas) != len(self.Cs):
            raise InvalidParameterError("omegas and Cs must have equal length")


def normalize(raw: RawParams) -> ModelParams:
    """Scale away m_B, m_F, g_BB; needs g_BB > 0 and a rational square
    scaling for the signed C_j."""
    if raw.g_BB <= 0:
        raise InvalidParameterError("g_BB must be positive")
    alpha_sq = raw.m_F
    beta_sq = raw.m_B
    gamma_sq = 1 / (raw.m_B ** 2 * raw.g_BB)
    g_bf = raw.g_BF * alpha_sq * gamma_sq * raw.m_B
    omega0 = raw.omega0 * gamma_sq * raw.m_B
    omegas = tuple(w * gamma_sq * raw.m_F for w in raw.omegas)
    # C scalings act on squares: C0^2 scales as it is, while keeping the
    # signed C_j exact requires their factor to be a rational square
    C0_sq = raw.C0_sq * gamma_sq / beta_sq ** 2
    cj_fac = _sqrt_fraction(gamma_sq / alpha_sq ** 2)
    Cs = tuple(c * cj_fac for c in raw.Cs)
    return ModelParams(omega0, omegas, C0_sq, Cs, g_bf)


def eom(p: ModelParams, s: PhaseState) -> PhaseState:
    """Canonical vector field; derivatives are returned in the state slots."""
    return vector_to_state(_vector_field(p)(s.t, state_to_vector(s)), s.t)


def vector_to_state(v: Sequence[complex], t: complex = 0.0) -> PhaseState:
    n_f = (len(v) - 2) // 2
    return PhaseState(complex(v[0]), complex(v[1]),
                      tuple(v[2:2 + n_f]), tuple(v[2 + n_f:]), t)


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


def separatrix_state(w0: float, a: float, t: complex
                     ) -> Tuple[complex, complex]:
    """(q0, p0) at time t of the separatrix of the one-degree q0 subsystem,
    q0^2 = (2/3) w0 + a + 3a / sinh^2(sqrt(3a) t), a of separatrix_scale."""
    sh = cmath.sinh(math.sqrt(3 * a) * t)
    if sh == 0:
        raise NoSeparatrixError("separatrix pole at t = 0")
    q0_sq = 2 * w0 / 3 + a + 3 * a / (sh * sh)
    q0 = cmath.sqrt(q0_sq)
    if (q0 * t).real < 0:   # branch with q0 ~ +1/t near the pole
        q0 = -q0
    return q0, separatrix_slope(a, t) / (2 * q0)


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
        _, amp, mu = _case1_mode(p, h_j, j)
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
