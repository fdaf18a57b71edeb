"""The hand-listed solvability tree for one Lame block, kept as a test oracle.

``theorem5_check`` is the condition tree of Morales-Ruiz & Simo (J.
Differential Equations 129, 1996) for ``alpha_dot^2 = P(alpha)``, written on
the eight coefficients of ``P``: a half-odd-integer index m = n + 1/2 is
decided by the clauses for m = 1, 2, 3 and m > 3 split mod 6.  On this model
those clauses decide whether the VE1 resonance coefficient vanishes for every
energy, which is how ``bfmix.lame.theorem5_check`` decides them; the tree
stays here as the independent route it is checked against.  It has no clause
for m = 0 mod 6 with B_j = 0 and passes such a block with a note.

``p_coefficients`` writes ``P`` in closed form, and
``p_coefficients_from_invariants`` derives it from the Weierstrass invariants
independently.  ``bfmix.lame.theorem5_check`` writes the fractional-index
rows of the tree in closed form; the tests check them against this tree.
"""
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

from bfmix.lame import _is_baldassarri_index, lame_index, lame_offset

Q = Fraction


@dataclass(frozen=True)
class PCoefficients:
    a1: Fraction
    a2: Fraction
    b1: Fraction
    b2: Fraction
    c1: Fraction
    c2: Fraction
    d1: Fraction
    d2: Fraction


def p_coefficients(omega0, omega_j, C0_sq, g_bf) -> PCoefficients:
    """Closed-form coefficient list of P(alpha, h) for one block."""
    n = lame_index(g_bf)
    if n is None or n == 0:
        raise ValueError("coefficients need a nonzero rational Lame index")
    nn = n * (n + 1)
    w0, wj, c0sq = Q(omega0), Q(omega_j), Q(C0_sq)
    B = lame_offset(w0, wj, n)
    return PCoefficients(
        a1=4 / nn,
        a2=Q(0),
        b1=-12 * B / nn,
        b2=Q(0),
        c1=12 * B ** 2 / nn - Q(16, 3) * w0 ** 2 * nn,
        c2=4 * nn,
        d1=(Q(16, 3) * B * w0 ** 2 * nn - 4 * B ** 3 / nn
            - nn ** 2 * (4 * c0sq + Q(64, 27) * w0 ** 3)),
        d2=8 * nn * wj,
    )


@dataclass(frozen=True)
class LameData:
    n: Fraction
    B_j: Tuple[Fraction, ...]
    coeffs: Tuple[PCoefficients, ...]


def p_coefficients_from_invariants(omega0, omega_j, C0_sq, g_bf) -> PCoefficients:
    """Independent derivation: substitute wp = (alpha - B)/(n(n+1)) into
    n(n+1)^2 n (4 wp^3 - g2 wp - g3) and expand exactly in alpha and h.

    This is the oracle route; it never touches the closed-form
    ``p_coefficients``.
    """
    n = lame_index(g_bf)
    if n is None or n == 0:
        raise ValueError("derivation needs a nonzero rational Lame index")
    nn = n * (n + 1)
    w0, wj, c0sq = Q(omega0), Q(omega_j), Q(C0_sq)
    B = lame_offset(w0, wj, n)
    # g2 = g2_0 + h*g2_h, g3 = g3_0 + h*g3_h
    g2_0, g2_h = Q(16, 3) * w0 ** 2, Q(-4)
    g3_0, g3_h = 4 * c0sq + Q(64, 27) * w0 ** 3, Q(-8, 3) * w0
    # P(alpha) = (4/nn)(alpha - B)^3 - nn*g2*(alpha - B) - nn^2*g3
    # expand (alpha - B)^3 = alpha^3 - 3B alpha^2 + 3B^2 alpha - B^3
    a1 = 4 / nn
    a2 = Q(0)
    b1 = a1 * (-3 * B)
    b2 = Q(0)
    c1 = a1 * 3 * B ** 2 - nn * g2_0
    c2 = -nn * g2_h
    d1 = a1 * (-B ** 3) + nn * g2_0 * B - nn ** 2 * g3_0
    d2 = nn * g2_h * B - nn ** 2 * g3_h
    return PCoefficients(a1, a2, b1, b2, c1, c2, d1, d2)


def lame_data(p) -> LameData:
    """Per-block Lame index, offsets and P-coefficients for model parameters."""
    n = lame_index(p.g_bf)
    if n is None:
        raise ValueError(f"2 g_bf = {2 * Q(p.g_bf)} is not n(n+1) for rational n")
    B = tuple(lame_offset(p.omega0, wj, n) for wj in p.omegas)
    coeffs = tuple(p_coefficients(p.omega0, wj, p.C0_sq, p.g_bf)
                   for wj in p.omegas)
    return LameData(n=n, B_j=B, coeffs=coeffs)


@dataclass
class Theorem5Verdict:
    passed_case: str                                  # case1|case2_1|...|none
    failed_conditions: List[Tuple[str, Fraction]] = field(default_factory=list)
    derived_constraints: dict = field(default_factory=dict)
    conjecture_conditional: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.passed_case != "none"


def theorem5_check(c: PCoefficients, n) -> Theorem5Verdict:
    """Evaluate the solvability necessary conditions for one block, exactly."""
    n = Q(n)
    nn = n * (n + 1)
    v = Theorem5Verdict(passed_case="none")
    if c.a2 != 0:
        v.failed_conditions.append(("a2 = 0", c.a2))
        return v

    # condition 1: integer index (n >= 1), a1 = 4/(n(n+1))
    if n.denominator == 1 and n >= 1:
        if c.a1 == 4 / nn:
            v.passed_case = "case1"
            v.derived_constraints["family"] = "integer-index"
            return v
        v.failed_conditions.append(("a1 = 4/(n(n+1))", c.a1 - 4 / nn))
        return v

    # condition 2: m = n + 1/2 a positive integer, a1 = 16/(4 m^2 - 1)
    m_frac = n + Q(1, 2)
    if m_frac.denominator == 1 and m_frac >= 1:
        m = int(m_frac)
        v.conjecture_conditional = True
        if c.a1 != Q(16, 4 * m * m - 1):
            v.failed_conditions.append(("a1 = 16/(4m^2-1)",
                                        c.a1 - Q(16, 4 * m * m - 1)))
            return v
        if c.b2 != 0:
            v.failed_conditions.append(("b2 = 0", c.b2))
            return v
        if m == 1:
            if c.b1 == 0:
                v.passed_case = "case2_1"
                v.derived_constraints["B_j"] = Q(0)
                v.derived_constraints["omega_j/omega0"] = Q(1, 4)
            else:
                v.failed_conditions.append(("m=1: b1 = 0", c.b1))
            return v
        if m == 2:
            ok = True
            if c.c2 != 0:
                v.failed_conditions.append(("m=2: c2 = 0", c.c2))
                ok = False
            r = 16 * c.a1 * c.c1 + 3 * c.b1 ** 2
            if r != 0:
                v.failed_conditions.append(("m=2: 16 a1 c1 + 3 b1^2 = 0", r))
                ok = False
            if ok:
                v.passed_case = "case2_2"
            return v
        if m == 3:
            ok = True
            r1 = 16 * c.a1 * c.d2 + 11 * c.b1 * c.c2
            if r1 != 0:
                v.failed_conditions.append(("m=3: 16 a1 d2 + 11 b1 c2 = 0", r1))
                ok = False
            r2 = 1024 * c.a1 ** 2 * c.d1 + 704 * c.a1 * c.b1 * c.c1 + 45 * c.b1 ** 3
            if r2 != 0:
                v.failed_conditions.append(
                    ("m=3: 1024 a1^2 d1 + 704 a1 b1 c1 + 45 b1^3 = 0", r2))
                ok = False
            if ok:
                v.passed_case = "case2_3"
                v.derived_constraints["B_j = (32/33) omega_j"] = True
                v.derived_constraints["55 omega0 = 28 omega_j"] = True
                v.derived_constraints["343 C0^2 = 72 omega0^3"] = True
            return v
        # m > 3
        ok = True
        if c.b1 != 0:
            v.failed_conditions.append((f"m={m}: b1 = 0", c.b1))
            ok = False
        if m % 6 in (1, 2, 4, 5):
            if c.c1 != 0 or c.c2 != 0:
                v.failed_conditions.append(
                    (f"m={m} = 1,2,4,5 mod 6: c1 = c2 = 0",
                     c.c1 if c.c1 != 0 else c.c2))
                ok = False
        elif m % 2 == 1:
            if c.d1 != 0 or c.d2 != 0:
                v.failed_conditions.append(
                    (f"m={m} odd: d1 = d2 = 0", c.d1 if c.d1 != 0 else c.d2))
                ok = False
        else:
            # m = 0 mod 6: the stated alternatives leave this unconstrained
            v.notes.append(f"m={m} is 0 mod 6: no clause applies; the "
                           "variational chain decides")
        if ok:
            v.passed_case = "case2_m"
            if m % 6 == 3:
                v.notes.append(
                    "m = 3 mod 6 covered only by the odd-m clause (d1 = d2 = 0)")
        return v

    # condition 3: Baldassarri-type fractional indices
    if _is_baldassarri_index(n):
        if c.b2 != 0:
            v.failed_conditions.append(("b2 = 0", c.b2))
            return v
        branch_a = (c.c2 == 0 and c.b1 ** 2 - 3 * c.a1 * c.c1 == 0)
        r_a1 = c.c2
        r_a2 = c.b1 ** 2 - 3 * c.a1 * c.c1
        r_b1 = c.c2 * c.b1 - 3 * c.a1 * c.d2
        r_b2 = 2 * c.b1 ** 3 - 9 * c.a1 * c.b1 * c.c1 + 27 * c.a1 ** 2 * c.d1
        branch_b = (r_b1 == 0 and r_b2 == 0)
        if branch_a or branch_b:
            v.passed_case = "case3"
            return v
        v.failed_conditions.append(("case3 branch a: c2 = 0", r_a1))
        v.failed_conditions.append(("case3 branch a: b1^2 - 3 a1 c1 = 0", r_a2))
        v.failed_conditions.append(("case3 branch b: c2 b1 - 3 a1 d2 = 0", r_b1))
        v.failed_conditions.append(
            ("case3 branch b: 2 b1^3 - 9 a1 b1 c1 + 27 a1^2 d1 = 0", r_b2))
        return v

    v.notes.append("index outside the integer, half-integer and fractional "
                   "solvable families")
    v.failed_conditions.append(("index in a solvable family", n))
    return v
