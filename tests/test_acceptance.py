"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 pin elliptic-plane log coefficients under the conventions of
:mod:`bfmix.variational`:

* ``sol1`` is monic at the exponent ``-n``, and the Wronskian is ``+1``;
* ``mu_first = -sol2 K`` (row 1) and ``mu_second = sol1 K`` (row 2);
* a pick takes its basis solution with coefficient ``+1``.

A first-order choice is written ``xi0 = a tb.sol1 + b tb.sol2`` and
``xi_j = c nb.sol1 + d nb.sol2``.  Each of these criteria also checks the
exact value against the nonlinear monodromy oracle of ``helpers_monodromy``
and prints both.  Run with

    pytest tests/test_acceptance.py -v -s
"""
import itertools
import math
import random
import time
from collections import namedtuple
from fractions import Fraction as Q

import numpy as np

from bfmix import elliptic, heun, lame, melnikov, model, verdict, variational as V
from bfmix.model import PhaseState, make_params
import helpers_model
import helpers_theorem5 as t5
from conftest import first_curve, random_rational, random_series, ve3_row1
from helpers_contour import contour_oracle
from helpers_series import agrees_with, differentiate
from helpers_eps import forcing_oracle
from helpers_monodromy import monodromy_rows

#: largest distance allowed between an oracle reading and the exact value
ORACLE_TOL = 1e-3
#: smallest distance between a stated constant and the exact value
SEPARATION = Q(1, 4)


def gate(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def case2_params(n, w0, wj, c0sq, h, n_f=1):
    g = Q(n) * (Q(n) + 1) / 2
    return (make_params(w0, [wj] * n_f, c0sq, [0] * n_f, g),
            elliptic.invariants_from_energy(w0, c0sq, h))


def run_case2(n, w0, wj, c0sq, h, n_f=1, order=16, choice=None):
    p, e = case2_params(n, w0, wj, c0sq, h, n_f)
    ch = choice or V.standard_choice(Q(n))
    return V.higher_ve_residues(V.ve1_context(p, e, order), ch)


Point = namedtuple("Point", "p e ve1 tb nbs")


def case2_point(n, w0, wj, c0sq, h, n_f=1, order=16):
    """VE1 and its Frobenius bases at one elliptic-plane parameter point."""
    p, e = case2_params(n, w0, wj, c0sq, h, n_f)
    ve1 = V.build_ve1(p, e, order)
    return Point(p, e, ve1, V.frobenius(ve1.tangential),
                 [V.frobenius(q) for q in ve1.normal])


def first_order(pt, a, b, c, d):
    """``(xi0, [xi_j])``; every normal block gets the same ``(c, d)``."""
    return (pt.tb.sol1.scale(a) + pt.tb.sol2.scale(b),
            [nb.sol1.scale(c) + nb.sol2.scale(d) for nb in pt.nbs])


def log_rows(pt, xi0, xij, third=True):
    """Exact ``(row 1, row 2)`` log coefficients per block, tangential first.

    VE2 comes from ``forcing_k2`` and ``variation_of_constants``.  VE3
    comes from ``forcing_k3``, fed with the zero-constant second-order
    particulars.  Homogeneous second-order additions would change the VE3
    residues only through the VE2 ones, so they drop out where VE2 is
    log-free.
    """
    bases = [pt.tb, *pt.nbs]
    orbit = V.OrbitFactors.of(pt.ve1.qbar0, pt.p.g_bf, pt.e.C0_sq)
    k0, kj = V.forcing_k2(orbit, xi0, xij)
    vocs = [V.variation_of_constants(b, k) for b, k in zip(bases, [k0, *kj])]
    ve2 = [v.log_coefficients for v in vocs]
    if not third:
        return ve2, None
    k0, kj = V.forcing_k3(orbit, xi0, xij, vocs[0].particular,
                          [v.particular for v in vocs[1:]])
    ve3 = [((-(b.sol2 * k)).coefficient(-1), (b.sol1 * k).coefficient(-1))
           for b, k in zip(bases, [k0, *kj])]
    return ve2, ve3


def oracle(pt, xi0, xij):
    return monodromy_rows(pt.p, pt.ve1.qbar0, pt.tb, pt.nbs, xi0, xij)


def near(reading, exact):
    return abs(complex(reading) - complex(exact)) <= ORACLE_TOL


def fmt(x):
    return f"{complex(x).real:+.7f}"


def test_criterion_01_index_one_residue():
    """Index 1 at w0 = w_j = C0^2 = 1, h = 0: row-1 VE3 residue, N_f = 1, 2.

    The picks are those of ``standard_choice(1)``: ``xi0 = +tb.sol2`` and
    ``xi_j = +nb.sol1``.  Row 1 is ``(2/3) c^3`` per unit of ``N_f``, free of
    ``a`` and ``b``.  Under these picks it is ``+2 g^2 N_f / 3``, that is
    ``(2/3, 4/3)``.  The residue is odd in ``xi_j``, so the stated
    ``-2 g^2 N_f / 3`` is the value for ``xi_j = -nb.sol1``; that value is
    asserted too.
    """
    t0 = time.time()
    res1 = run_case2(1, Q(1), Q(1), Q(1), Q(0), n_f=1, order=16)
    res2 = run_case2(1, Q(1), Q(1), Q(1), Q(0), n_f=2, order=16)
    elapsed = time.time() - t0
    got = (ve3_row1(res1)[0], ve3_row1(res2)[0])
    exact = (Q(2, 3), Q(4, 3))
    stated = (Q(-2, 3), Q(-4, 3))
    ok = got == exact and ve3_row1(res2) == (Q(4, 3),) * 2 and elapsed < 10.0

    flipped, read = [], []
    for n_f in (1, 2):
        pt = case2_point(1, Q(1), Q(1), Q(1), Q(0), n_f=n_f)
        ve2, ve3 = log_rows(pt, *first_order(pt, 0, 1, -1, 0))
        ok = ok and all(r == (0, 0) for r in ve2)
        ok = ok and all(r[0] == ve3[1][0] for r in ve3[1:])
        flipped.append(ve3[1][0])
        _, third = oracle(pt, *first_order(pt, 0, 1, 1, 0))
        read.append(third[1][0])
        ok = ok and all(near(third[1 + j][0], exact[n_f - 1])
                        for j in range(n_f))
    ok = ok and tuple(flipped) == stated
    ok = ok and all(abs(x - s) >= SEPARATION for x, s in zip(exact, stated))
    gate("1", ok,
         f"xi0 = +sol2, xi_j = +sol1: exact {tuple(map(str, got))}, oracle "
         f"({', '.join(map(fmt, read))}); xi_j = -sol1 gives "
         f"{tuple(map(str, flipped))}, stated {tuple(map(str, stated))}; "
         f"pipeline {elapsed:.2f}s")


def test_criterion_02_index_two_mu2_expansion():
    """Index 2, random rational draw: ``mu2 = sol1 K_j^(2)``.

    The picks are ``xi0 = +tb.sol1`` and ``xi_j = +nb.sol1``.  The three pole
    coefficients are as stated.  ``tb.sol1 = -qbar0'`` is the time-shift
    direction, so ``-(nb.sol1)'`` solves this block of VE2 exactly.  The
    block therefore gets no logarithm, and the ``1/t`` coefficient is ``0``.
    The stated ``B_j (g2 - B_j^2/3)`` cannot hold; it is ``-5`` on this draw.
    """
    rng = random.Random(2)
    w0 = Q(rng.randint(1, 5), rng.randint(1, 3))
    wj = Q(rng.randint(1, 5), rng.randint(1, 3))
    c0sq = Q(rng.randint(1, 4))
    h = Q(rng.randint(0, 3), rng.randint(1, 2))
    pt = case2_point(2, w0, wj, c0sq, h, order=24)
    e, ve1, tb, nb = pt.e, pt.ve1, pt.tb, pt.nbs[0]
    bj = 4 * w0 - 2 * wj
    _, kj = V.forcing_k2(V.OrbitFactors.of(ve1.qbar0, 3, e.C0_sq), tb.sol1,
                         [nb.sol1])
    mu2 = nb.sol1 * kj[0]
    stated = {Q(-7): Q(12), Q(-5): -4 * bj,
              Q(-3): Q(4, 3) * bj ** 2 - Q(12, 5) * e.g2,
              Q(-1): bj * (e.g2 - bj ** 2 / 3)}
    got = {ex: mu2.coefficient(ex) for ex in stated}
    ok = all(got[ex] == stated[ex] for ex in (Q(-7), Q(-5), Q(-3)))
    ok = ok and got[Q(-1)] == 0
    ok = ok and abs(stated[Q(-1)]) >= SEPARATION

    time_shift = agrees_with(tb.sol1, -differentiate(ve1.qbar0))
    y = -differentiate(nb.sol1)
    resid = (differentiate(differentiate(y)) - ve1.normal[0] * y
             - kj[0])
    solves = not resid and resid.truncation_order > 0
    ok = ok and time_shift and solves

    second, _ = oracle(pt, tb.sol1, [nb.sol1])
    ok = ok and near(second[1][1], 0) and near(second[1][0], 0)
    gate("2", ok,
         f"draw w0={w0} wj={wj} C0^2={c0sq} h={h}: t^-7, t^-5, t^-3 as "
         f"stated; 1/t exact {got[Q(-1)]}, oracle {fmt(second[1][1])}, "
         f"stated {stated[Q(-1)]}; tb.sol1 = -qbar0': {time_shift}; "
         f"-(nb.sol1)' solves VE2 (residual zero to "
         f"t^{resid.truncation_order}): {solves}")


def test_criterion_03_index_two_zero_offset_residue():
    """Index 2 with ``B_j = 0`` (``w_j = 2 w0``), ``C0^2 = 1``, ``h = 0``.

    For ``N_f = 1`` the normal rows are ``(8/5) w0 c^3`` and
    ``-(24/5) w0 c^2 d``.  ``STANDARD_CHOICES[2]`` takes ``xi0 = +tb.sol1``
    and ``xi_j = +nb.sol2``, so ``c = 0`` and its residue is ``0``.  The
    pick scan finds ``(8/5) w0 N_f`` in row 1 at ``xi0 = xi_j = +sol1``.
    The stated ``-72 w0 / 25`` is the value of neither row at any pure pick.
    """
    got, scanned = {}, {}
    for w0, n_f in ((Q(1), 1), (Q(2), 1), (Q(1), 2)):
        if n_f == 1:
            got[w0] = ve3_row1(run_case2(2, w0, 2 * w0, Q(1), Q(0)))[0]
        p, e = case2_params(2, w0, 2 * w0, Q(1), Q(0), n_f)
        ctx = V.ve1_context(p, e, 16)
        for ch in V.SCAN_CHOICES:
            w = V.higher_ve_residues(ctx, ch).nonzero_witness()
            if w:
                scanned[(w0, n_f)] = (ch.pick_xi0, ch.pick_xij) + w[1:]
                break
    ok = all(v == 0 for v in got.values())
    ok = ok and all(v == ("first", "first", "first", Q(8, 5) * w0 * n_f)
                    for (w0, n_f), v in scanned.items())
    ok = ok and len(scanned) == 3
    stated = {w0: Q(-72, 25) * w0 for w0 in got}
    ok = ok and all(abs(stated[w0] - x) >= SEPARATION
                    for w0 in got for x in (0, Q(8, 5) * w0))

    read = []
    for n_f, (c, d), row in ((1, (1, 0), Q(8, 5)), (2, (1, 0), Q(16, 5)),
                             (1, (0, 1), Q(0))):
        pt = case2_point(2, Q(1), Q(2), Q(1), Q(0), n_f=n_f)
        _, third = oracle(pt, *first_order(pt, 1, 0, c, d))
        read.append(third[1][0])
        ok = ok and all(near(third[1 + j][0], row) and near(third[1 + j][1], 0)
                        for j in range(n_f))
    gate("3", ok,
         f"stated {[str(v) for v in stated.values()]}; stated-pick residue "
         f"{[str(v) for v in got.values()]}, oracle {fmt(read[2])}; "
         f"witness (8/5) w0 N_f at xi0 = xi_j = +sol1 "
         f"{[str(v[3]) for v in scanned.values()]} for (w0, N_f) = "
         f"(1, 1), (2, 1), (1, 2), oracle {fmt(read[0])}, {fmt(read[1])}")


def lattice(total):
    return [x for x in itertools.product(range(total + 1), repeat=4)
            if sum(x) == total]


def test_criterion_04_half_integer_indices():
    """n = 1/2 (``w_j = w0/4``) and n = 5/2 (the constraint triple).

    Over the choice space the VE2 log coefficients are quadratic forms and
    the VE3 residues cubic forms in ``(a, b, c, d)``.  They are settled by
    their values at the 10 and 20 lattice points with ``a + b + c + d = 2``
    and ``3``.  There every row of both blocks is ``0``, so the survivors are
    silent at third order under every choice.  No normalisation turns these
    zero forms into the stated ``w0/4`` and ``(7/12) w0``.  The oracle is
    read at ``a = b = c = d = 1``.
    """
    survivors = {"1/2": (Q(1, 2), Q(1), Q(1, 4), Q(1), Q(0)),
                 "5/2": (Q(5, 2), Q(1), Q(55, 28), Q(72, 343), Q(0))}
    stated = {"1/2": Q(1, 4), "5/2": Q(7, 12)}
    ok, got, worst, nonzero = True, {}, {}, {}
    for name, args in survivors.items():
        res = run_case2(*args)
        got[name] = ve3_row1(res)[0]
        ok = ok and not res.ve2_has_log and got[name] == 0
        pt = case2_point(*args)
        rows = [log_rows(pt, *first_order(pt, *abcd), third=False)[0]
                for abcd in lattice(2)]
        rows += [sum(log_rows(pt, *first_order(pt, *abcd)), [])
                 for abcd in lattice(3)]
        nonzero[name] = sum(any(r != (0, 0) for r in rs) for rs in rows)
        ok = ok and nonzero[name] == 0
        second, third = oracle(pt, *first_order(pt, 1, 1, 1, 1))
        worst[name] = max(np.abs(second).max(), np.abs(third).max())
        ok = ok and worst[name] <= ORACLE_TOL
        ok = ok and abs(stated[name]) >= SEPARATION
    gate("4", ok,
         f"stated residues (1/4, 7/12); stated-pick residues "
         f"({got['1/2']}, {got['5/2']}); lattice points with a nonzero "
         f"VE2 or VE3 row ({nonzero['1/2']}, {nonzero['5/2']}) of 10 + 20; "
         f"oracle max |row| at a = b = c = d = 1 "
         f"({worst['1/2']:.1e}, {worst['5/2']:.1e})")


def test_criterion_05_p_coefficient_oracle():
    rng = random.Random(5)
    checked = 0
    identity_ok = True
    while checked < 20:
        w0 = abs(random_rational(rng, nonzero=True))
        wj = abs(random_rational(rng, nonzero=True))
        c0sq = abs(random_rational(rng))
        n = rng.choice([Q(1), Q(2), Q(1, 2), Q(3, 2), Q(5, 2), Q(7, 6)])
        g = n * (n + 1) / 2
        a = t5.p_coefficients(w0, wj, c0sq, g)
        b = t5.p_coefficients_from_invariants(w0, wj, c0sq, g)
        if a != b:
            gate("5", False, f"coefficient routes disagree at {(w0, wj, c0sq, n)}")
        if a.c2 * a.b1 - 3 * a.a1 * a.d2 != -32 * w0 * n * (n + 1):
            identity_ok = False
        checked += 1
    gate("5", identity_ok,
         "20 draws: closed-form and derived coefficients identical; "
         "c2 b1 - 3 a1 d2 = -32 w0 n(n+1) holds exactly")


def test_criterion_06_condition_tree():
    agree = []

    def tree(w0, wj, c0sq, g, n):
        """The hand-listed tree's verdict for one block; bfmix's own check at
        h = 0 must pass or fail the same block alike."""
        v = t5.theorem5_check(t5.p_coefficients(w0, wj, c0sq, g), n)
        p = make_params(w0, [wj], c0sq, [0], g)
        (got,) = lame.theorem5_check(p, first_curve(w0, c0sq, 0), n)
        agree.append(got.passed == v.passed)
        return v

    v_half = tree(1, Q(1, 4), 1, Q(3, 8), Q(1, 2))
    ok = (v_half.passed_case == "case2_1"
          and v_half.derived_constraints["omega_j/omega0"] == Q(1, 4))
    bad_half = tree(1, 1, 1, Q(3, 8), Q(1, 2))
    ok = ok and bad_half.passed_case == "none"

    w0, wj, c0sq = Q(28), Q(55), Q(72, 343) * Q(28) ** 3
    v_53 = tree(w0, wj, c0sq, Q(35, 8), Q(5, 2))
    ok = ok and v_53.passed_case == "case2_3"
    ok = ok and lame.lame_offset(w0, wj, Q(5, 2)) == Q(32, 33) * wj
    ok = ok and 55 * w0 == 28 * wj and 343 * c0sq == 72 * w0 ** 3
    for bad_wj, bad_c0sq in ((wj + 1, c0sq), (wj, c0sq + 1)):
        ok = ok and tree(w0, bad_wj, bad_c0sq, Q(35, 8),
                         Q(5, 2)).passed_case == "none"

    # branches that can never pass on these coefficient families
    rng = random.Random(6)
    for _ in range(10):
        w0r = abs(random_rational(rng, nonzero=True))
        wjr = abs(random_rational(rng, nonzero=True))
        c0r = abs(random_rational(rng))
        ok = ok and tree(w0r, wjr, c0r, Q(15, 8),
                         Q(3, 2)).passed_case == "none"
        for n in (Q(7, 2), Q(9, 2), Q(13, 2)):
            ok = ok and tree(w0r, wjr, Q(1), n * (n + 1) / 2,
                             n).passed_case == "none"
        ok = ok and tree(w0r, wjr, Q(1), Q(7, 6) * Q(13, 6) / 2,
                         Q(7, 6)).passed_case == "none"
    gate("6", ok and all(agree),
         "m=1 survives only at w_j = w0/4; m=3 forces the stated triple; "
         "m=2, m>3 and the fractional branch always fail; the resonance "
         f"check of bfmix.lame agrees on all {len(agree)} blocks")


def test_criterion_07_oscillator_plane_reduction():
    rng = random.Random(7)
    ok = True
    for _ in range(20):
        w0 = abs(random_rational(rng, nonzero=True))
        w = abs(random_rational(rng, nonzero=True))
        g = random_rational(rng)
        csum = random_rational(rng, nonzero=True)
        red = heun.reduce_case1(w0, w, g, csum)
        ok = ok and red.B == g * csum / (4 * w ** 3)
        ok = ok and ((red.B != 0) == (g != 0))
    defect = heun.transform_consistency(heun.reduce_case1(1, 2, 1, 3),
                                        np.linspace(0.1, 1.0, 10))
    ok = ok and defect < 1e-6
    gate("7", ok, f"B = g sum(C_j)/(4 w^3) exact, nonzero iff g != 0; "
                  f"transform defect {defect:.2e} < 1e-6")


def test_criterion_08_closed_form_residuals():
    rng = random.Random(8)
    p1 = make_params(1, [2, Q(1, 2)], 0, [1, Q(3, 4)], Q(2, 3))
    worst1 = max(helpers_model.case1_residual(
        p1, [0, 0], 0, complex(0.2 + 0.7 * rng.random(),
                               0.4 * rng.random() - 0.2))
        for _ in range(10))
    p2 = make_params(1, [1], 1, [0], 1)
    e = elliptic.invariants_from_energy(1, 1, 0)
    worst2 = max(helpers_model.case2_residual(
        p2, e, complex(0.25 + 0.6 * rng.random(), 0.3 * rng.random()))
        for _ in range(10))
    p3 = make_params(1, [], Q(1, 100), [], 0)
    a3, _ = model.separatrix_scale(1, Q(1, 100))
    worst3 = max(helpers_model.separatrix_residual(
        p3, a3, complex(0.3 + 1.0 * rng.random(), 0.3 * rng.random()))
        for _ in range(10))
    s0 = PhaseState(0.4, 0.1, (0.5,), (-0.2,), 0.0)
    _, drift = model.integrate_orbit(make_params(1, [1], 0, [1], Q(1, 2)),
                                     s0, 5.0, tol=1e-10)
    ok = worst1 < 1e-9 and worst2 < 1e-9 and worst3 < 1e-9 and drift < 1e-8
    gate("8", ok, f"residuals: oscillator-plane {worst1:.1e}, elliptic-plane "
                  f"{worst2:.1e}, separatrix {worst3:.1e} (all < 1e-9); "
                  f"energy drift {drift:.1e} < 1e-8")


def test_criterion_09_splitting_function():
    s = melnikov.setup(1, 1, Q(1, 100), 1, 3.0)
    v = verdict.analyze_case3(1, 1, Q(1, 100), 1, 3.0)
    A = complex(*v.witness.data["fitted_amplitude"])
    # residual of the reported sine form against the contour oracle
    resid = max(abs(A * math.sin(s.theta * t0)
                    - contour_oracle(s, t0)) / abs(A)
                for t0 in np.linspace(0.0, 2 * math.pi / s.theta, 9))
    ok = resid < 1e-8
    d1 = melnikov._contour_integral(s, 0.3, s.contour_radius,
                                    s.contour_points)
    d2 = melnikov._contour_integral(s, 0.3, s.contour_radius / 2,
                                    2 * s.contour_points)
    ok = ok and abs(d1 - d2) <= 1e-6 * abs(d1)
    period_half = math.pi / (2 * math.sqrt(2 * s.omega1))
    zeros = melnikov.find_simple_zeros(s)
    ok = ok and bool(zeros)
    for z, dmag in zeros:
        ok = ok and abs(z - round(z / period_half) * period_half) < 1e-8
        ok = ok and dmag > 1e-3 * abs(A)
    quoted = 12 * math.pi * s.a * math.sqrt(2 * s.omega1) * s.amplitude
    gate("9", ok,
         f"sine-fit residual {resid:.1e}; zeros at multiples of "
         f"pi/(2 sqrt(2 w1)) and simple; radius-independent to 1e-6; "
         f"measured prefactor {A.imag:.6f}i vs quoted {quoted:.6f}i "
         f"(= 16 pi w1 amp vs 12 pi a sqrt(2 w1) amp; agreement not required)")


def test_criterion_10_forcing_oracle_and_ring_axioms():
    rng = random.Random(10)
    draws = 0
    while draws < 20:
        w0 = abs(random_rational(rng, nonzero=True))
        wjs = [abs(random_rational(rng, nonzero=True))]
        c0sq = abs(random_rational(rng))
        g = random_rational(rng, nonzero=True)
        try:
            e = elliptic.invariants_from_energy(w0, c0sq, Q(0))
        except elliptic.DegenerateInvariantsError:
            continue
        qbar = V.qbar0_series(e, 14)
        a = random_series(rng, lo=-2, hi=3, trunc=6)
        b = [random_series(rng, lo=-2, hi=3, trunc=6)]
        a2 = random_series(rng, lo=-2, hi=3, trunc=6)
        b2 = [random_series(rng, lo=-2, hi=3, trunc=6)]
        if not a or not b[0]:
            continue
        orbit = V.OrbitFactors.of(qbar, g, c0sq)
        k0_2, kj_2 = V.forcing_k2(orbit, a, b)
        k0_3, kj_3 = V.forcing_k3(orbit, a, b, a2, b2)
        o0_2, oj_2, o0_3, oj_3 = forcing_oracle(qbar, w0, wjs, c0sq, g,
                                                a, b, a2, b2)
        if not (agrees_with(k0_2, o0_2) and agrees_with(k0_3, o0_3)
                and agrees_with(kj_2[0], oj_2[0])
                and agrees_with(kj_3[0], oj_3[0])):
            gate("10", False, f"oracle mismatch at draw {draws}")
        draws += 1

    e = elliptic.invariants_from_energy(1, 1, 0)
    p = make_params(1, [1], 1, [0], 1)
    ve1 = V.build_ve1(p, e, 20)
    for q in (ve1.tangential,) + ve1.normal:
        basis = V.frobenius(q)
        w = (basis.sol1 * differentiate(basis.sol2)
             - differentiate(basis.sol1) * basis.sol2)
        if not (w.coefficient(0) == 1
                and all(c == 0 for ex, c in w.terms() if ex != 0)):
            gate("10", False, "Wronskian not the constant series 1")

    rng2 = random.Random(11)
    for _ in range(1000):
        x = random_series(rng2, trunc=7)
        y = random_series(rng2, trunc=6)
        z = random_series(rng2, trunc=8)
        if not agrees_with((x + y) + z, x + (y + z)):
            gate("10", False, "associativity failed")
        if not agrees_with(x * (y + z), x * y + x * z):
            gate("10", False, "distributivity failed")
    gate("10", True, "20 oracle draws agree exactly; Wronskians identically "
                     "one; 1000 randomized ring-axiom cases pass")
