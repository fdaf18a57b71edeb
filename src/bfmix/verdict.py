"""Unified classification: dispatch a parameter set to the case analysis it
fits and return a machine-checkable verdict with an explicit witness.

Outcomes: NonIntegrable always carries a nonzero exact witness (rational
constant, failed condition residual, logarithm coefficient, or certified
simple zeros); Separable occurs exactly for g_bf = 0; analyses that exhaust
their implemented obstruction tests without finding one return
NecessaryConditionsSurvived, never a claim of integrability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import elliptic, heun, lame, melnikov, variational
from .model import ModelParams
from .series import rational_sqrt

Q = Fraction

#: left end of the window analyze_case3 reports the zeros on
CASE3_T0_MIN = 0.01


class OutOfScopeError(ValueError):
    """Parameter pattern the analysis does not cover: the variational system
    does not split into closed blocks."""


@dataclass(frozen=True)
class Witness:
    kind: str          # heun_B | lame_monodromy | theorem5_failure |
                       # ve_log (VE2) | ve_residue (VE3) | melnikov | none
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IntegrabilityVerdict:
    case_id: str       # case1 | case2 | case3
    outcome: str       # NonIntegrable | Separable | NecessaryConditionsSurvived
    witness: Witness
    params: dict       # exact-string snapshot of the inputs
    details: dict = field(default_factory=dict)


def params_snapshot(p: ModelParams) -> dict:
    """Exact strings of the inputs.  "C0" is the rational root of C0^2 and
    is present only where C0^2 has one."""
    snapshot = {
        "omega0": str(p.omega0),
        "omegas": [str(w) for w in p.omegas],
        "C0_sq": str(p.C0_sq),
        "Cs": [str(c) for c in p.Cs],
        "g_bf": str(p.g_bf),
        "n_f": p.n_f,
    }
    c0 = rational_sqrt(p.C0_sq)
    if c0 is not None:
        snapshot["C0"] = str(c0)
    return snapshot


def _case_of(p: ModelParams) -> str:
    """case1: C0 = 0 and every C_j nonzero; case2: every C_j zero (the
    elliptic-plane orbit needs nothing of C0); case3: C0 nonzero with one
    transverse mode and C_1 nonzero."""
    c0 = p.C0_sq != 0
    cs = [c != 0 for c in p.Cs]
    if not any(cs):
        return "case2"
    if not c0:
        if all(cs):
            return "case1"
        raise OutOfScopeError(
            "C0 = 0 with some C_j zero and others nonzero: the variational "
            "system does not split into closed blocks; not analyzed")
    if p.n_f == 1:
        return "case3"
    raise OutOfScopeError(
        f"C0 != 0 with a nonzero C_j among N_f = {p.n_f} transverse modes: "
        "the variational system does not split into closed blocks; not "
        "analyzed")


def classify(p: ModelParams, h=0, action_I=None) -> IntegrabilityVerdict:
    """Verdict for model parameters: the arguments of the point's case, then
    that case's analysis.  ``h`` is the case-2 energy level and ``action_I``
    the case-3 frozen action.  At g_bf = 0, analyze_case2 says Separable in
    case 2; case 1 checks g_bf first, as unequal w_j have no Heun reduction."""
    case = _case_of(p)
    if case == "case2":
        return analyze_case2(p, h)
    if p.g_bf == 0:
        return IntegrabilityVerdict(
            case_id=case, outcome="Separable", witness=Witness("none"),
            params=params_snapshot(p),
            details={"reason": "g_bf = 0 decouples the system"})
    if case == "case1":
        return analyze_case1(heun.reduce_from_params(p))
    if action_I is None:
        raise ValueError("case 3 needs the frozen action (action_I)")
    return analyze_case3(p.omega0, p.omegas[0], p.C0_sq, p.Cs[0] ** 2,
                         action_I)


def analyze_case1(red: heun.HeunReduction) -> IntegrabilityVerdict:
    """Case-1 verdict from the Heun reduction at the common frequency omega
    (w_j = omega^2/2).

    B = g c_sum / (4 omega^3) is nonzero exactly when g is: omega > 0, and
    reduce_case1 rejects c_sum = 0."""
    snapshot = {"omega0": str(red.omega0), "omega": str(red.omega),
                "g_bf": str(red.g_bf), "c_sum": str(red.c_sum)}
    if red.g_bf == 0:
        return IntegrabilityVerdict(
            case_id="case1", outcome="Separable", witness=Witness("none"),
            params=snapshot, details={"B": str(red.B)})
    return IntegrabilityVerdict(
        case_id="case1", outcome="NonIntegrable",
        witness=Witness("heun_B", {"B": str(red.B)}), params=snapshot,
        details={"A1": str(red.A1), "B1": str(red.B1),
                 "A": str(red.A), "B": str(red.B),
                 "omega": str(red.omega), "c_sum": str(red.c_sum)})


def analyze_case2(p: ModelParams, h) -> IntegrabilityVerdict:
    """Case-2 verdict.  Every exact decision of the variational chain is
    certified by the series truncation or raises InsufficientOrderError, so
    a chain that decides gives the verdict of every higher order.  The
    standard pick runs first, then the other SCAN_CHOICES picks, each at the
    order that the Frobenius exponents certify for it
    (variational.chain_order): the VE1 context is rebuilt only for a pick
    that needs more terms than it holds.  The picks that share a context
    share its cache of the forcing terms that depend on one first-order pick
    alone, so a survivor's four chains build each such term once."""
    snapshot = params_snapshot(p)
    snapshot["h"] = str(Q(h))
    if p.g_bf == 0:
        return IntegrabilityVerdict(
            case_id="case2", outcome="Separable", witness=Witness("none"),
            params=snapshot, details={"reason": "g_bf = 0"})
    e = elliptic.invariants_from_energy(p.omega0, p.C0_sq, Q(h))
    details = {"g2": str(e.g2), "g3": str(e.g3),
               "discriminant": str(e.discriminant)}

    n = lame.lame_index(p.g_bf)
    if n is None:
        return IntegrabilityVerdict(
            case_id="case2", outcome="NonIntegrable",
            witness=Witness("lame_monodromy",
                            {"reason": "2 g_bf = n(n+1) has no rational root; "
                                       "monodromy of the normal equation is "
                                       "non-abelian",
                             "two_g_bf": str(2 * Q(p.g_bf))}),
            params=snapshot, details=details)
    details["lame_index"] = str(n)

    details["B_j"] = [str(lame.lame_offset(p.omega0, wj, n))
                      for wj in p.omegas]
    checks = [lame.theorem5_check(p, j, h) for j in range(p.n_f)]
    details["theorem5"] = [
        {"passed_case": v.passed_case,
         "failed_conditions": [[cid, str(r)] for cid, r in v.failed_conditions],
         "conjecture_conditional": v.conjecture_conditional,
         "notes": v.notes}
        for v in checks]
    failing = [(j, v) for j, v in enumerate(checks) if not v.passed]
    if failing:
        j, v = failing[0]
        return IntegrabilityVerdict(
            case_id="case2", outcome="NonIntegrable",
            witness=Witness("theorem5_failure",
                            {"block": j + 1,
                             "failed_conditions": [[cid, str(r)] for cid, r
                                                   in v.failed_conditions]}),
            params=snapshot, details=details)

    first = variational.standard_choice(n)
    picks = [first, *(ch for ch in variational.SCAN_CHOICES if ch != first)]
    depth = 0
    for i, ch in enumerate(picks):
        order = variational.chain_order(n, ch)
        if order > depth:
            ctx, depth = variational.ve1_context(p, e, order), order
        verdict = _ve_verdict(variational.higher_ve_residues(ctx, ch), ch,
                              snapshot, details, scanned=i > 0)
        if verdict is not None:
            return verdict
    return IntegrabilityVerdict(
        case_id="case2", outcome="NecessaryConditionsSurvived",
        witness=Witness("none"), params=snapshot,
        details=dict(details,
                     reason="no logarithmic obstruction through third order "
                            "for any basis solution choice"))


def _choice_record(ch: variational.HigherVEChoice) -> dict:
    return {"pick_xi0": ch.pick_xi0, "pick_xij": ch.pick_xij}


def _ve_verdict(result: variational.HigherVEResult,
                ch: variational.HigherVEChoice, snapshot: dict, details: dict,
                scanned: bool = False) -> Optional[IntegrabilityVerdict]:
    if result.ve2_has_log:
        logs = [[str(a), str(b)] for a, b in result.rows[0]]
        return IntegrabilityVerdict(
            case_id="case2", outcome="NonIntegrable",
            witness=Witness("ve_log", {"order": 2, "log_coefficients": logs,
                                       "choice": _choice_record(ch)}),
            params=snapshot, details=details)
    hit = result.nonzero_witness()
    if hit is not None:
        block, row, value = hit
        data = {"order": 3, "value": str(value), "block": block, "row": row,
                "choice": _choice_record(ch)}
        if scanned:
            data["found_by_scan"] = True
        rows = result.rows[1]
        labels = variational.block_labels(len(rows))
        det = dict(details, ve3_residues={
            label: [str(a), str(b)] for label, (a, b) in zip(labels, rows)})
        return IntegrabilityVerdict(
            case_id="case2", outcome="NonIntegrable",
            witness=Witness("ve_residue", data),
            params=snapshot, details=det)
    return None


def analyze_case3(omega0, omega1, c0sq, c1sq, action) -> IntegrabilityVerdict:
    """Case-3 verdict from C1^2 itself: C1 enters the splitting only through
    its square.  The zeros k pi / theta are reported on the window
    [CASE3_T0_MIN, CASE3_T0_MIN + 1.05 pi / sqrt(2 w1)], 2.1 zero spacings
    long."""
    s = melnikov.setup(omega0, omega1, c0sq, c1sq, action)
    snapshot = {"omega0": str(Q(omega0)), "omega1": str(Q(omega1)),
                "C0_sq": str(Q(c0sq)), "C1_sq": str(Q(c1sq)),
                "action_I": repr(s.action_I)}
    A = melnikov.predicted_amplitude(s)
    zeros = melnikov.find_simple_zeros(
        s, CASE3_T0_MIN,
        CASE3_T0_MIN + 1.05 * math.pi / math.sqrt(2 * s.omega1))
    # the fitted_* fields keep their names; the sine form is exact, so the
    # fit residual is 0, or inf (relative to |A|) when A is exactly 0
    details = {
        "h_star": repr(s.h_star), "a": repr(s.a),
        "fitted_amplitude_im": repr(A.imag),
        "fitted_amplitude_re": repr(A.real),
        "fit_residual": repr(0.0 if A else math.inf),
        "predicted_amplitude_im": repr(A.imag),
        "quoted_amplitude_im": repr(12 * math.pi * s.a
                                    * math.sqrt(2 * s.omega1) * s.amplitude),
        "contour_radius": repr(s.contour_radius),
    }
    if zeros:
        return IntegrabilityVerdict(
            case_id="case3", outcome="NonIntegrable",
            witness=Witness("melnikov",
                            {"fitted_amplitude": [A.real, A.imag],
                             "zeros": [[z, d] for z, d in zeros]}),
            params=snapshot, details=details)
    return IntegrabilityVerdict(
        case_id="case3", outcome="NecessaryConditionsSurvived",
        witness=Witness("none"), params=snapshot,
        details=dict(details, reason="no simple zero located (splitting "
                                     "function degenerate on this range)"))
