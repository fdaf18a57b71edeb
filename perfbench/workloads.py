"""Seeded inputs, timed calls and output checks for the four workloads.

A workload is a fixed list of reference points (those of
``scripts/run_case_studies.py``, identical for every seed) followed by
repeating cycles of seeded random points.  Each cycle has the same families
in the same order, so every run measures the same mix whatever the seed and
however many cycles fit in the run; only the small-height rational
parameters inside each family change with the seed.

The program sees only the generated command lines (and, on
``ode-crosscheck``, the generated arguments of the float oracles).  Draws the
program rightly refuses (zero discriminant, no separatrix) are rejected here
with the generator's own formulas, and the case-3 action is drawn above the
oval threshold; refused inputs are neither timed nor counted.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction as Q

import numpy as np

WORKLOADS = ("case2-witness", "case2-survivors", "case3-splitting",
             "ode-crosscheck")

#: why each workload is in the benchmark, and what it exercises
WHY = {
    "case2-witness": "random index-1 and index-2 case-2 points; the exact "
                     "series kernel does the work and index 2 needs the scan",
    "case2-survivors": "points on the two surviving families; 5 full VE "
                       "pipeline runs per point rebuild the same VE1 bases",
    "case3-splitting": "random case-3 points; float contour quadrature only, "
                       "so series and variational changes are bypassed",
    "ode-crosscheck": "random case-1 points plus the float oracles; the only "
                      "workload where odeint, model and heun do the work",
}

#: seeded random cycles drawn per run; a run that exhausts them starts over
POOL_CYCLES = 400

_DENS = (1, 2)
_CASE3_T0_MIN = 0.01          # the CLI's default --t0-min
_T_GRID = np.linspace(0.1, 1.0, 10)


def _rat(rng: random.Random, lo: int = 1, hi: int = 4, dens=_DENS) -> Q:
    return Q(rng.randint(lo, hi), rng.choice(dens))


def _nonzero_rat(rng: random.Random, lo: int, hi: int) -> Q:
    while True:
        x = _rat(rng, lo, hi)
        if x != 0:
            return x


def _invariants(omega0: Q, c0sq: Q, h: Q):
    """(g2, g3) of the q0 subsystem at energy h."""
    return (Q(16, 3) * omega0 ** 2 - 4 * h,
            4 * c0sq - Q(8, 3) * omega0 * h + Q(64, 27) * omega0 ** 3)


def _discriminant(omega0: Q, c0sq: Q, h: Q) -> Q:
    g2, g3 = _invariants(omega0, c0sq, h)
    return g2 ** 3 - 27 * g3 ** 2


def _wp_coefficients(g2: float, g3: float, terms: int) -> list:
    """c_1..c_terms of wp = 1/t^2 + sum c_m t^(2m), from wp'' = 6 wp^2 - g2/2."""
    c = [0.0, g2 / 20, g3 / 28]
    for m in range(3, terms + 1):
        s = sum(c[i] * c[m - 1 - i] for i in range(1, m - 1))
        c.append(6 * s / (4 * m * m - 2 * m - 12))
    return c[1:terms + 1]


def _wp_point(omega0: Q, c0sq: Q, h: Q) -> complex:
    """A point at 0.6 of the Laurent radius: beyond where the program's
    order-60 expansion certifies itself, so its ODE continuation runs, and
    well short of the nearest lattice point.  The radius comes from the
    growth of the coefficients, which behave like (2m+1) R^-(2m+2)."""
    c = _wp_coefficients(*(float(x) for x in _invariants(omega0, c0sq, h)), 28)
    radius = min(abs(c[m - 1] / (2 * m + 1)) ** (-1 / (2 * m + 2))
                 for m in range(20, 29) if c[m - 1] != 0)
    return 0.6 * radius * complex(math.cos(0.2), math.sin(0.2))


def _has_separatrix(omega0: Q, c0sq: Q) -> bool:
    """4 w0^2 - 3 h* > 0 for the largest real root h* of the discriminant
    cubic of the one-degree q0 subsystem."""
    w0, c = float(omega0), float(c0sq)
    roots = np.roots([1.0, -w0 ** 2, -9 * c * w0, 8 * c * w0 ** 3 + 6.75 * c * c])
    real = [r.real for r in roots if abs(r.imag) < 1e-10 * max(1.0, abs(r))]
    return bool(real) and 4 * w0 ** 2 - 3 * max(real) > 0


def _arg(flag: str, value) -> str:
    # "--flag=value" keeps argparse from reading "-1/2" as an option
    return f"--{flag}={value}"


def _case2_point(family: str, g: Q, omega0: Q, omegaj, c0sq: Q, h: Q,
                 ref: bool = False) -> dict:
    argv = ["analyze", "case2", _arg("gbf", g), _arg("omega0", omega0),
            _arg("omegaj", ",".join(str(w) for w in omegaj)),
            _arg("c0sq", c0sq), _arg("h", h)]
    return {"family": family, "ref": ref, "argv": argv,
            "params": {"g": g, "omega0": omega0, "omegaj": list(omegaj),
                       "c0sq": c0sq, "h": h}}


def _case3_point(omega0: Q, omega1: Q, c0sq: Q, c1sq: Q, action: float,
                 ref: bool = False) -> dict:
    argv = ["analyze", "case3", _arg("omega0", omega0), _arg("omega1", omega1),
            _arg("c0sq", c0sq), _arg("c1sq", c1sq), _arg("action", repr(action))]
    return {"family": "splitting", "ref": ref, "argv": argv,
            "params": {"omega0": omega0, "omega1": omega1, "c0sq": c0sq,
                       "c1sq": c1sq, "action": action}}


def _case1_point(omega0: Q, omega: Q, g: Q, csum: Q, h1: Q,
                 wp_c0sq: Q, wp_h: Q, ref: bool = False) -> dict:
    argv = ["analyze", "case1", _arg("omega0", omega0), _arg("omega", omega),
            _arg("gbf", g), _arg("csum", csum)]
    return {"family": "case1" if g != 0 else "case1-separable", "ref": ref,
            "argv": argv,
            "params": {"omega0": omega0, "omega": omega, "g": g, "csum": csum,
                       "h1": h1, "wp_c0sq": wp_c0sq, "wp_h": wp_h,
                       "wp_z": _wp_point(omega0, wp_c0sq, wp_h)}}


# -- references (scripts/run_case_studies.py, run at the default order) -------

def _references(workload: str) -> list:
    if workload == "case2-witness":
        return [_case2_point("index1", Q(1), Q(1), [Q(1)], Q(1), Q(0), True),
                _case2_point("index2", Q(3), Q(1), [Q(2)], Q(1), Q(0), True),
                _case2_point("index2", Q(3), Q(1), [Q(1)], Q(1), Q(0), True),
                _case2_point("nonlattice", Q(1, 3), Q(1), [Q(1)], Q(1), Q(0),
                             True)]
    if workload == "case2-survivors":
        return [_case2_point("half", Q(3, 8), Q(1), [Q(1, 4)], Q(1), Q(0), True),
                _case2_point("five-half", Q(35, 8), Q(1), [Q(55, 28)],
                             Q(72, 343), Q(0), True)]
    if workload == "case3-splitting":
        return [_case3_point(Q(1), Q(1), Q(1, 100), Q(1), 3.0, True)]
    return [_case1_point(Q(1), Q(2), Q(1), Q(3), Q(3), Q(1), Q(1, 2), True),
            _case1_point(Q(1), Q(2), Q(0), Q(3), Q(3), Q(1), Q(1, 2), True)]


# -- seeded cycles ---------------------------------------------------------------

def _case2_random(rng: random.Random, g: Q, family: str, n_f: int) -> dict:
    while True:
        omega0 = _rat(rng)
        omegaj = [_rat(rng) for _ in range(n_f)]
        c0sq = _rat(rng)
        h = _rat(rng, -2, 2)
        if _discriminant(omega0, c0sq, h) != 0:
            return _case2_point(family, g, omega0, omegaj, c0sq, h)


def _witness_cycle(rng: random.Random, k: int) -> list:
    # index 2 always needs the scan (5 pipeline runs, about 5x index 1);
    # two index-2 points per cycle keep the median and the p90 tail inside
    # the index-2 cluster rather than on the gap between the clusters
    return [_case2_random(rng, Q(1), "index1", 1 + k % 2),
            _case2_random(rng, Q(3), "index2", 1),
            _case2_random(rng, Q(3), "index2", 2)]


def _survivor_cycle(rng: random.Random, k: int) -> list:
    half = None
    while half is None:
        omega0, c0sq, h = _rat(rng), _rat(rng), _rat(rng, -2, 2)
        if _discriminant(omega0, c0sq, h) != 0:
            half = _case2_point("half", Q(3, 8), omega0, [omega0 / 4], c0sq, h)
    while True:
        omega0, h = _rat(rng), _rat(rng, -2, 2)
        c0sq = Q(72, 343) * omega0 ** 3
        if _discriminant(omega0, c0sq, h) != 0:
            return [half, _case2_point("five-half", Q(35, 8), omega0,
                                       [Q(55, 28) * omega0], c0sq, h)]


def _case3_cycle(rng: random.Random, k: int) -> list:
    while True:
        omega0 = _rat(rng, 1, 4, (1, 2))
        omega1 = _rat(rng, 1, 4, (1, 2))
        c0sq = Q(rng.randint(1, 5), 100)
        c1sq = _rat(rng, 1, 3, (1, 2, 4))
        # action a factor 1.25 to 3 above the oval threshold sqrt(2 w1 C1^2),
        # so the splitting amplitude is well above the quadrature noise
        action = math.sqrt(2 * omega1 * c1sq) * (1.25 + 1.75 * rng.random())
        if _has_separatrix(omega0, c0sq):
            return [_case3_point(omega0, omega1, c0sq, c1sq, action)]


def _case1_cycle(rng: random.Random, k: int) -> list:
    while True:
        omega0 = _rat(rng)
        omega = _rat(rng, 1, 6, (2, 3, 4))
        g = _rat(rng, -2, 2)
        csum = _nonzero_rat(rng, -4, 4)
        # 0 < h1 < omega |C| keeps the oscillator-plane amplitude real
        h1 = omega * abs(csum) * Q(rng.randint(1, 3), 4)
        wp_c0sq, wp_h = _rat(rng), _rat(rng, -2, 2)
        if g != 0 and _discriminant(omega0, wp_c0sq, wp_h) != 0:
            return [_case1_point(omega0, omega, g, csum, h1, wp_c0sq, wp_h)]


_CYCLES = {"case2-witness": _witness_cycle, "case2-survivors": _survivor_cycle,
           "case3-splitting": _case3_cycle, "ode-crosscheck": _case1_cycle}


def generate(workload: str, seed: int, cycles: int = POOL_CYCLES):
    """(references, cycles): the fixed references and ``cycles`` seeded
    cycles, each a list of points."""
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLES[workload]
    return _references(workload), [make(rng, k) for k in range(cycles)]


# -- the timed call ------------------------------------------------------------

def run_point(point: dict, bfmix) -> dict:
    """The work one point costs a user: ``bfmix analyze`` through
    ``cli.main``, plus the float oracles on ``ode-crosscheck``.  Returns the
    raw outputs; parsing and checking happen outside the timed region."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bfmix.cli.main(list(point["argv"]))
    result = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if point["argv"][1] == "case1":
        result["oracles"] = _case1_oracles(point["params"], bfmix)
    return result


def _case1_oracles(prm: dict, bfmix) -> dict:
    heun, model, elliptic = bfmix.heun, bfmix.model, bfmix.elliptic
    red = heun.reduce_case1(prm["omega0"], prm["omega"], prm["g"], prm["csum"])
    defect = heun.transform_consistency(red, _T_GRID)
    p = model.make_params(prm["omega0"], [prm["omega"] ** 2 / 2], 0,
                          [prm["csum"]], prm["g"])
    t_start, t_end = 0.2, 1.2
    s0 = model.solution_case1(p, [prm["h1"]], 0, t_start)
    traj, drift = model.integrate_orbit(p, s0, t_end, tol=1e-10)
    closed = model.solution_case1(p, [prm["h1"]], 0, t_end)
    h0 = model.hamiltonian(p, s0)
    e = elliptic.invariants_from_energy(prm["omega0"], prm["wp_c0sq"],
                                        prm["wp_h"])
    wp, wpp = elliptic.wp_numeric_with_derivative(e, prm["wp_z"])
    end = traj.states[-1]
    return {"defect": defect, "drift": drift, "energy": abs(h0),
            "end": [complex(end[2]), complex(end[3])],
            "closed": [complex(closed.qs[0]), complex(closed.ps[0])],
            "wp": wp, "wpp": wpp}


# -- output checks (untimed) ------------------------------------------------------

def check_point(point: dict, result: dict) -> list:
    """Problems with one point's outputs; empty when they are correct.  The
    checks hold for any seed: they follow from the family of the point."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()[:200]}"]
    try:
        report = json.loads(result["stdout"])
    except ValueError as exc:
        return [f"unparsable report: {exc}"]
    verdict = report["verdict"]
    kind = point["argv"][1]
    if kind == "case2":
        return _check_case2(point, verdict)
    if kind == "case3":
        return _check_case3(point, verdict, report["details"])
    return _check_case1(point, verdict, result["oracles"])


def _expect(problems: list, ok: bool, what: str):
    if not ok:
        problems.append(what)


def _check_case2(point: dict, verdict: dict) -> list:
    fam, prm = point["family"], point["params"]
    witness = verdict["witness"]
    data = witness["data"]
    problems: list = []
    if fam in ("half", "five-half"):
        _expect(problems, verdict["outcome"] == "NecessaryConditionsSurvived"
                and witness["kind"] == "none",
                f"survivor gave {verdict['outcome']}/{witness['kind']}")
        return problems
    if fam == "nonlattice":
        _expect(problems, verdict["outcome"] == "NonIntegrable"
                and witness["kind"] == "lame_monodromy",
                f"non-lattice coupling gave {witness['kind']}")
        return problems
    if verdict["outcome"] != "NonIntegrable" or witness["kind"] != "ve_residue" \
            or data.get("order") != 3:
        return [f"{fam} gave {verdict['outcome']}/{witness['kind']}"]
    value = Q(data["value"])
    n_f = len(prm["omegaj"])
    if fam == "index1":
        # 2 g^2 N_f / 3 at g = 1, frozen in tests/test_variational.py
        _expect(problems, value == Q(2, 3) * n_f,
                f"index-1 residue {value} != {Q(2, 3) * n_f}")
        return problems
    _expect(problems, value != 0, "index-2 witness residue is zero")
    choice = data.get("choice", {})
    if n_f == 1 and choice.get("pick_xi0") == choice.get("pick_xij") == "first":
        # N_f (8 w0/5 - 34 B_j/35), B_j = 4 w0 - 2 w_j: frozen in
        # tests/test_variational.py for the singular-solution picks
        w0, wj = prm["omega0"], prm["omegaj"][0]
        want = Q(8, 5) * w0 - Q(34, 35) * (4 * w0 - 2 * wj)
        _expect(problems, value == want, f"index-2 residue {value} != {want}")
    return problems


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_case3(point: dict, verdict: dict, details: dict) -> list:
    prm = point["params"]
    witness = verdict["witness"]
    if verdict["outcome"] != "NonIntegrable" or witness["kind"] != "melnikov":
        return [f"case 3 gave {verdict['outcome']}/{witness['kind']}"]
    problems: list = []
    omega1 = float(prm["omega1"])
    theta = 2 * math.sqrt(2 * omega1)
    re, im = witness["data"]["fitted_amplitude"]
    predicted = float(details["predicted_amplitude_im"])
    _expect(problems, _close(im, predicted, 1e-9) and abs(re) <= 1e-9 * abs(im),
            f"fitted amplitude {re}+{im}i against predicted {predicted}i")
    spacing = math.pi / theta
    t0_max = _CASE3_T0_MIN + 1.05 * math.pi / math.sqrt(2 * omega1)
    want = [k * spacing for k in range(1, int(t0_max / spacing) + 2)
            if _CASE3_T0_MIN < k * spacing < t0_max]
    zeros = witness["data"]["zeros"]
    _expect(problems, len(zeros) == len(want),
            f"{len(zeros)} zeros, expected {len(want)}")
    for (z, dmag), zk in zip(zeros, want):
        _expect(problems, abs(z - zk) <= 1e-9 * zk, f"zero {z} is not {zk}")
        _expect(problems, _close(dmag, theta * math.hypot(re, im), 1e-7),
                f"|d'| {dmag} != theta |A| {theta * math.hypot(re, im)}")
    return problems


def _check_case1(point: dict, verdict: dict, oracles: dict) -> list:
    prm = point["params"]
    problems: list = []
    b = prm["g"] * prm["csum"] / (4 * prm["omega"] ** 3)
    if prm["g"] == 0:
        _expect(problems, verdict["outcome"] == "Separable",
                f"g = 0 gave {verdict['outcome']}")
    else:
        witness = verdict["witness"]
        _expect(problems, verdict["outcome"] == "NonIntegrable"
                and witness["kind"] == "heun_B"
                and Q(witness["data"]["B"]) == b,
                f"case 1 gave {witness}, expected B = {b}")
    # the tolerances of tests/test_heun.py, tests/test_model.py and
    # tests/test_elliptic.py, made relative where the scale varies
    _expect(problems, oracles["defect"] < 1e-6,
            f"Heun transform defect {oracles['defect']}")
    _expect(problems, oracles["drift"] < 1e-8 * max(1.0, oracles["energy"]),
            f"energy drift {oracles['drift']}")
    for got, want in zip(oracles["end"], oracles["closed"]):
        _expect(problems, abs(got - want) < 1e-6 * max(1.0, abs(want)),
                f"orbit end {got} against closed form {want}")
    wp, wpp = oracles["wp"], oracles["wpp"]
    g2, g3 = (float(x) for x in _invariants(prm["omega0"], prm["wp_c0sq"],
                                             prm["wp_h"]))
    cubic = 4 * wp ** 3 - g2 * wp - g3
    _expect(problems, abs(wpp ** 2 - cubic) < 1e-8 * max(1.0, abs(cubic)),
            f"wp ODE residual {abs(wpp ** 2 - cubic)}")
    # at 0.6 of the radius 150 Laurent terms leave a tail below 1e-30
    z = prm["wp_z"]
    series = 1 / z ** 2 + sum(c * z ** (2 * m) for m, c in
                              enumerate(_wp_coefficients(g2, g3, 150), 1))
    _expect(problems, abs(wp - series) < 1e-9 * max(1.0, abs(series)),
            f"wp {wp} against its Laurent sum {series}")
    return problems
