"""The Euler-equation check of the case-1 normal form at B = 0."""
import cmath

from bfmix.heun import HeunReduction


def euler_exponent_check(red: HeunReduction) -> float:
    """For B = 0 the normal form is Euler's equation; x^s solves it with
    s(s-1) = -(A + 1/4).  Returns the magnitude of that indicial residual
    for the exponent computed from A."""
    if red.B != 0:
        raise ValueError("Euler check applies to B = 0 only")
    a = complex(float(red.A))
    s = 0.5 + cmath.sqrt(0.25 - (a + 0.25))
    return abs(s * (s - 1) + (a + 0.25))
