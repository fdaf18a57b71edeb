"""Command-line front end: analysis runs, verification checks, series dumps.

Exit codes: 0 completed analysis (whatever the verdict), 2 usage errors
(a ``series --order`` too low for the dump among them, a ``series --what
mu2|mu3`` point whose first order already carries a logarithm, a ``verify
--tol`` that is not positive and finite, a ``verify`` point whose closed
form leaves the float range, and a ``--json`` or ``--csv`` path that cannot
be written), 3 internal verification failure: a ``verify`` residual above
its tolerance or not a number, or a ``series --what mu3`` dump whose second
order already carries a logarithm.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import __version__, elliptic, heun, lame, melnikov, model, variational
from . import verdict as verdict_mod
from .series import InsufficientOrderError

Q = Fraction

SCHEMA_VERSION = 1

#: largest sample count ``verify --samples`` and ``sweep --t0-samples`` take
MAX_SAMPLES = 10 ** 4

#: ``verify --which separatrix``'s default C0^2.  At w0 = 1 the q0 plane has
#: a separatrix here; at prop2's default C0^2 = 1 it has none
SEPARATRIX_C0SQ = Q(1, 100)

#: ``verify --which`` -> the box (re0, re_span, im0, im_span) of its sample
#: times t = re0 + re_span u + i (im0 + im_span v), u and v drawn from [0, 1)
VERIFY_BOXES = {"prop1": (0.2, 0.8, -0.2, 0.4),
                "prop2": (0.25, 0.7, 0.0, 0.3),
                "separatrix": (0.3, 1.2, 0.0, 0.3)}


class VerificationFailure(Exception):
    """An internal cross-check (dual-route or tolerance gate) failed."""


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def parse_rational_list(text: str) -> List[Fraction]:
    values = [parse_rational(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"no rational in {text!r}")
    return values


def _check_samples(flag: str, count: int):
    if not 1 <= count <= MAX_SAMPLES:
        raise ValueError(f"{flag} {count} outside 1..{MAX_SAMPLES}")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The bfmix argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="bfmix",
        description="Integrability analysis of the coupled condensate "
                    "oscillator chain: obstruction witnesses from exact "
                    "variational-equation residues, Heun-form reduction and "
                    "separatrix-splitting integrals.")
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", metavar="PATH",
                          help="write the JSON report here")
    csv_out = argparse.ArgumentParser(add_help=False)
    csv_out.add_argument("--csv", metavar="PATH", help="write CSV output here")
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="classify a parameter set")
    an_sub = an.add_subparsers(dest="case", required=True)

    c1 = an_sub.add_parser("case1", parents=[json_out],
                           help="C0 = 0, all C_j nonzero, equal "
                                "frequencies w_j = omega^2/2")
    c1.add_argument("--omega0", type=parse_rational, required=True)
    c1.add_argument("--omega", type=parse_rational, required=True)
    c1.add_argument("--gbf", type=parse_rational, required=True)
    c1.add_argument("--csum", type=parse_rational, required=True)

    c2 = an_sub.add_parser("case2", parents=[json_out],
                           help="all C_j = 0, any C0")
    c2.add_argument("--gbf", type=parse_rational, required=True)
    c2.add_argument("--omega0", type=parse_rational, required=True)
    c2.add_argument("--omegaj", type=parse_rational_list, required=True,
                    metavar="R[,R...]")
    c2.add_argument("--c0sq", type=parse_rational, required=True)
    c2.add_argument("--h", type=parse_rational, required=True)

    c3 = an_sub.add_parser("case3", parents=[json_out],
                           help="C0 != 0, C1 != 0, one transverse mode")
    c3.add_argument("--omega0", type=parse_rational, required=True)
    c3.add_argument("--omega1", type=parse_rational, required=True)
    c3.add_argument("--c0sq", type=parse_rational, required=True)
    c3.add_argument("--c1sq", type=parse_rational, required=True)
    c3.add_argument("--action", type=parse_rational, required=True)

    ve = sub.add_parser("verify", parents=[json_out],
                        help="closed-form solution residual checks")
    ve.add_argument("--which", choices=list(VERIFY_BOXES), required=True)
    ve.add_argument("--omega0", type=parse_rational, default=Q(1))
    ve.add_argument("--omegaj", type=parse_rational_list, default=[Q(2)])
    ve.add_argument("--cj", type=parse_rational_list, default=[Q(1)])
    ve.add_argument("--hj", type=parse_rational_list, default=[Q(0)])
    ve.add_argument("--c0sq", type=parse_rational, default=None,
                    help=f"default 1, and {SEPARATRIX_C0SQ} for separatrix")
    ve.add_argument("--h", type=parse_rational, default=Q(0))
    ve.add_argument("--gbf", type=parse_rational, default=Q(1))
    ve.add_argument("--samples", type=int, default=10)
    ve.add_argument("--tol", type=float, default=1e-9)

    se = sub.add_parser("series", parents=[csv_out],
                        help="dump exact local series as CSV")
    se.add_argument("--what", choices=["wp", "qbar", "ve1", "mu2", "mu3"],
                    required=True)
    se.add_argument("--gbf", type=parse_rational, default=Q(1))
    se.add_argument("--omega0", type=parse_rational, default=Q(1))
    se.add_argument("--omegaj", type=parse_rational_list, default=[Q(1)])
    se.add_argument("--c0sq", type=parse_rational, default=Q(1))
    se.add_argument("--h", type=parse_rational, default=Q(0))
    se.add_argument("--order", type=int, default=16)
    se.add_argument("--pick-xi0", choices=["first", "second"], default=None)
    se.add_argument("--pick-xij", choices=["first", "second"], default=None)

    sw = sub.add_parser("sweep", parents=[csv_out],
                        help="tabulate the splitting function d(t0)")
    sw.add_argument("--omega0", type=parse_rational, required=True)
    sw.add_argument("--omega1", type=parse_rational, required=True)
    sw.add_argument("--c0sq", type=parse_rational, required=True)
    sw.add_argument("--c1sq", type=parse_rational, required=True)
    sw.add_argument("--action", type=parse_rational, required=True)
    sw.add_argument("--t0-min", type=float, default=0.0)
    sw.add_argument("--t0-max", type=float, default=3.2)
    sw.add_argument("--t0-samples", type=int, default=65)
    return ap


def _verdict_report(v: verdict_mod.IntegrabilityVerdict, command: str,
                    elapsed: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "bfmix", "version": __version__},
        "command": command,
        "verdict": {
            "case_id": v.case_id,
            "outcome": v.outcome,
            "witness": {"kind": v.witness.kind, "data": v.witness.data},
        },
        "params": v.params,
        "details": v.details,
        "timing_seconds": round(elapsed, 6),
    }


def verdict_from_report(report: dict) -> verdict_mod.IntegrabilityVerdict:
    """Rebuild the verdict record from a parsed JSON report."""
    v = report["verdict"]
    return verdict_mod.IntegrabilityVerdict(
        case_id=v["case_id"], outcome=v["outcome"],
        witness=verdict_mod.Witness(v["witness"]["kind"],
                                    v["witness"]["data"]),
        params=report["params"], details=report["details"])


def _emit(report: dict, json_path: Optional[str]):
    text = json.dumps(report, sort_keys=True, indent=2)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(rows, csv_path: Optional[str]):
    """Compute every row, then write them: a dump that fails leaves no
    file, and an existing one as it was."""
    text = "".join(row + "\n" for row in rows)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _run_analyze(args) -> dict:
    t0 = time.perf_counter()
    if args.case == "case1":
        v = verdict_mod.analyze_case1(heun.reduce_case1(
            args.omega0, args.omega, args.gbf, args.csum))
    elif args.case == "case2":
        p = model.make_params(args.omega0, args.omegaj, args.c0sq,
                              [Q(0)] * len(args.omegaj), args.gbf)
        v = verdict_mod.analyze_case2(p, args.h)
    else:
        v = verdict_mod.analyze_case3(args.omega0, args.omega1, args.c0sq,
                                      args.c1sq, args.action)
    return _verdict_report(v, "analyze", time.perf_counter() - t0)


def _verify_residual(args):
    """The residual that ``verify --which`` samples, a function of t."""
    c0sq = args.c0sq
    if c0sq is None:
        c0sq = SEPARATRIX_C0SQ if args.which == "separatrix" else Q(1)
    if args.which == "prop1":
        p = model.make_params(args.omega0, args.omegaj,
                              0, args.cj, args.gbf)
        return functools.partial(model.case1_residual, p, args.hj, 0.0)
    if args.which == "prop2":
        p = model.make_params(args.omega0, args.omegaj, c0sq,
                              [Q(0)] * len(args.omegaj), args.gbf)
        e = elliptic.invariants_from_energy(args.omega0, c0sq, args.h)
        return functools.partial(model.case2_residual, p, e)
    p = model.make_params(args.omega0, [], c0sq, [], 0)
    a, _ = model.separatrix_scale(args.omega0, c0sq)
    return functools.partial(model.separatrix_residual, p, a)


def _run_verify(args) -> tuple[dict, bool]:
    """(report, passed) of one ``verify`` run."""
    _check_samples("--samples", args.samples)
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol {args.tol} must be positive and finite")
    # numpy draws the samples that the verify goldens pin; only this
    # command imports it
    import numpy as np

    re0, re_span, im0, im_span = VERIFY_BOXES[args.which]
    rng = np.random.default_rng(20240811)
    ts = [complex(re0 + re_span * rng.random(), im_span * rng.random() + im0)
          for _ in range(args.samples)]
    try:
        worst = model.max_residual(map(_verify_residual(args), ts))
    except OverflowError as exc:
        raise ValueError(f"verify --which {args.which}: the closed form "
                         f"leaves the float range: {exc}") from None
    pts = [[t.real, t.imag] for t in ts]
    ok = worst < args.tol
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "bfmix", "version": __version__},
        "command": "verify",
        "which": args.which,
        "max_residual": repr(worst),
        "tolerance": repr(args.tol),
        "sample_points": pts,
        "pass": ok,
    }
    return report, ok


def _series_rows(args):
    e = elliptic.invariants_from_energy(args.omega0, args.c0sq, args.h)
    order = Q(args.order)
    p = model.make_params(args.omega0, args.omegaj, args.c0sq,
                          [Q(0)] * len(args.omegaj), args.gbf)
    if args.what == "wp":
        yield from elliptic.wp_laurent(e, order).to_csv_rows()
        return
    if args.what == "qbar":
        yield from variational.qbar0_series(e, order).to_csv_rows()
        return
    if args.what == "ve1":
        ve1 = variational.build_ve1(p, e, order)
        yield "# tangential"
        yield from ve1.tangential.to_csv_rows()
        for j, nj in enumerate(ve1.normal):
            yield f"# normal_{j + 1}"
            yield from nj.to_csv_rows()
        return
    choice = variational.standard_choice(lame.lame_index(p.g_bf))
    choice = variational.HigherVEChoice(args.pick_xi0 or choice.pick_xi0,
                                        args.pick_xij or choice.pick_xij)
    ctx = variational.ve1_context(p, e, order)
    result = variational.higher_ve_residues(ctx, choice)
    if args.what == "mu3" and result.ve2_has_log:
        raise VerificationFailure("second order already carries a logarithm; "
                                  "third-order rows undefined")
    bases = (ctx.tangential_basis, *ctx.normal_bases)
    forcings = result.forcings[0 if args.what == "mu2" else 1]
    for label, b, k in zip(variational.block_labels(len(bases)), bases,
                           forcings):
        yield f"# {label} row_first"
        yield from (-(b.sol2 * k)).to_csv_rows()
        yield f"# {label} row_second"
        yield from (b.sol1 * k).to_csv_rows()


def _linspace(a: float, b: float, n: int) -> List[float]:
    """n points from a to b, as ``numpy.linspace`` spaces them: i * step + a,
    the last one b."""
    step = (b - a) / max(n - 1, 1)
    grid = [i * step + a for i in range(n)]
    if n > 1:
        grid[-1] = b
    return grid


def _run_sweep(args):
    if not (math.isfinite(args.t0_min) and math.isfinite(args.t0_max)):
        raise ValueError(f"t0 range [{args.t0_min}, {args.t0_max}] must be "
                         "finite")
    _check_samples("--t0-samples", args.t0_samples)
    s = melnikov.setup(args.omega0, args.omega1, args.c0sq, args.c1sq,
                       args.action)
    t0s = _linspace(args.t0_min, args.t0_max, args.t0_samples)
    header = ["t0,d_num_re,d_num_im,d_closed_re,d_closed_im"]
    return header + list(melnikov.sweep_csv_rows(s, t0s))


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "analyze":
            report = _run_analyze(args)
            _emit(report, args.json)
            return 0
        if args.command == "verify":
            report, ok = _run_verify(args)
            _emit(report, args.json)
            if not ok:
                residual = report["max_residual"]
                why = ("is not a number" if residual == "nan"
                       else f"above {args.tol}")
                print(f"verification failed: {args.which}: residual "
                      f"{residual} {why}", file=sys.stderr)
                return 3
            return 0
        if args.command == "series":
            _write_csv(_series_rows(args), args.csv)
            return 0
        if args.command == "sweep":
            _write_csv(_run_sweep(args), args.csv)
            return 0
        ap.error(f"unknown command {args.command}")
        return 2
    except InsufficientOrderError as exc:
        print(f"error: order too low to decide: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
