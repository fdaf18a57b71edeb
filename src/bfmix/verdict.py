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
from functools import partial
from typing import Optional

from . import elliptic, heun, lame, melnikov, variational
from .model import ModelParams
from .series import as_fraction, rational_sqrt

Q = Fraction


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
    a chain that decides gives the verdict of every higher order.  The four
    SCAN_CHOICES picks run in variational.run_order(n): the standard pick
    first, except at index 2, which starts at the deciding ("first",
    "first"), as the standard index-2 pick has c = 0 in README acceptance
    row 3 and reads zero; no pick is skipped.  A witness from any pick but
    the first one run is marked found_by_scan.  Each pick runs at the order
    that the Frobenius exponents certify for it (variational.chain_order):
    the VE1 context is rebuilt only for a pick that needs more terms than it
    holds.  The picks that share a context share its cache of the forcing
    terms that depend on one first-order pick alone, so a survivor's four
    chains build each such term once.  The Theorem-5 conditions are checked
    once for every block, on the curve at ``h`` that the chain reads."""
    snapshot = params_snapshot(p)
    snapshot["h"] = str(Q(h))
    verdict = partial(IntegrabilityVerdict, "case2", params=snapshot)
    if p.g_bf == 0:
        return verdict("Separable", Witness("none"),
                       details={"reason": "g_bf = 0"})
    e = elliptic.invariants_from_energy(p.omega0, p.C0_sq, Q(h))
    details = {"g2": str(e.g2), "g3": str(e.g3),
               "discriminant": str(e.discriminant)}

    n = lame.lame_index(p.g_bf)
    if n is None:
        return verdict("NonIntegrable", Witness("lame_monodromy", {
            "reason": "2 g_bf = n(n+1) has no rational root; monodromy of "
                      "the normal equation is non-abelian",
            "two_g_bf": str(2 * Q(p.g_bf))}), details=details)
    details["lame_index"] = str(n)

    details["B_j"] = [str(lame.lame_offset(p.omega0, wj, n))
                      for wj in p.omegas]
    checks = lame.theorem5_check(p, e, n)
    rows = [[[cid, str(r)] for cid, r in v.failed_conditions] for v in checks]
    details["theorem5"] = [
        {"passed_case": v.passed_case, "failed_conditions": failed,
         "conjecture_conditional": v.conjecture_conditional,
         "notes": list(v.notes)}
        for v, failed in zip(checks, rows)]
    for j, v in enumerate(checks):
        if not v.passed:
            return verdict("NonIntegrable", Witness("theorem5_failure", {
                "block": j + 1, "failed_conditions": rows[j]}),
                details=details)

    depth = 0
    for i, ch in enumerate(variational.run_order(n)):
        order = variational.chain_order(n, ch)
        if order > depth:
            ctx, depth = variational.ve1_context(p, e, order), order
        found = _ve_verdict(variational.higher_ve_residues(ctx, ch), ch,
                            verdict, details, scanned=i > 0)
        if found is not None:
            return found
    return verdict("NecessaryConditionsSurvived", Witness("none"),
                   details=dict(details, reason="no logarithmic obstruction "
                                "through third order for any basis solution "
                                "choice"))


def _choice_record(ch: variational.HigherVEChoice) -> dict:
    return {"pick_xi0": ch.pick_xi0, "pick_xij": ch.pick_xij}


def _ve_verdict(result: variational.HigherVEResult,
                ch: variational.HigherVEChoice, verdict, details: dict,
                scanned: bool = False) -> Optional[IntegrabilityVerdict]:
    """``verdict`` (case id and snapshot bound) of a chain's witness, or
    None."""
    if result.ve2_has_log:
        logs = [[str(a), str(b)] for a, b in result.rows[0]]
        return verdict("NonIntegrable",
                       Witness("ve_log", {"order": 2, "log_coefficients": logs,
                                          "choice": _choice_record(ch)}),
                       details=details)
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
        return verdict("NonIntegrable", Witness("ve_residue", data),
                       details=det)
    return None


def analyze_case3(omega0, omega1, c0sq, c1sq, action) -> IntegrabilityVerdict:
    """Case-3 verdict from C1^2 itself: C1 enters the splitting only through
    its square.  The witness is the two zeros pi / theta and 2 pi / theta of
    one period of the closed sine form, whatever w1."""
    s = melnikov.setup(omega0, omega1, c0sq, c1sq, action)
    snapshot = {"omega0": str(as_fraction(omega0)),
                "omega1": str(as_fraction(omega1)),
                "C0_sq": str(as_fraction(c0sq)),
                "C1_sq": str(as_fraction(c1sq)),
                "action_I": repr(s.action_I)}
    A = melnikov.predicted_amplitude(s)
    zeros = melnikov.find_simple_zeros(s)
    # the fitted_* fields keep their names; the sine form is exact, so the
    # fit residual is 0, or inf (relative to |A|) when A is exactly 0
    details = {
        "h_star": repr(s.h_star), "a": repr(s.a),
        "fitted_amplitude_im": repr(A.imag),
        "fitted_amplitude_re": repr(A.real),
        "fit_residual": repr(0.0 if A else math.inf),
        "predicted_amplitude_im": repr(A.imag),
        "quoted_amplitude_im": repr(melnikov.quoted_amplitude(s)),
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
