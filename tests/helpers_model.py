"""Physical parameters and their rescaling to the normalized ``ModelParams``.

The decision path starts from ``ModelParams``; the rescaling that removes the
masses and g_BB is kept here to check that it lands on that form.
"""
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from bfmix.model import InvalidParameterError, ModelParams
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
