"""Command-line front end: analysis runs, verification checks, series dumps.

Exit codes: 0 completed analysis (whatever the verdict), 2 usage errors
(a ``series --order`` too low for the dump among them, a ``series --what
mu2|mu3`` point whose first order already carries a logarithm, a ``sweep``
contour sum that leaves the float range, a case-3 or ``sweep`` ``--omega1``
that rounds to 0.0, a ``verify --which separatrix`` or ``sweep`` point with
no separatrix, 27 C0^2 >= 8 w0^3, a ``verify`` flag that its ``--which``
does not read, and a ``--json`` or ``--csv`` path that cannot be written),
3 internal verification failure: a ``verify`` identity whose residual is
not exactly zero, or a ``series --what mu3`` dump whose second order
already carries a logarithm.
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

#: largest sample count ``sweep --t0-samples`` takes
MAX_SAMPLES = 10 ** 4

#: ``verify --which separatrix``'s default C0^2.  At w0 = 1 the q0 plane has
#: a separatrix here; at prop2's default C0^2 = 1 it has none
SEPARATRIX_C0SQ = Q(1, 100)

#: the flags each ``verify --which`` reads besides --omega0, with their
#: defaults; it refuses the others
VERIFY_FLAGS = {
    "prop1": {"omegaj": [Q(2)], "cj": [Q(1)], "hj": [Q(0)]},
    "prop2": {"omegaj": [Q(2)], "c0sq": Q(1), "h": Q(0)},
    "separatrix": {"c0sq": SEPARATRIX_C0SQ},
}


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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps the action its add_subparsers returns:
    ``subcommands.dest`` names the field, ``subcommands.choices`` maps each
    subcommand to its parser.  The subcommands' parsers are _Parsers too."""
    subcommands = None

    def add_subparsers(self, **kwargs):
        self.subcommands = super().add_subparsers(**kwargs)
        return self.subcommands


#: the help of every ``--h``: the q0 plane's energy, not the Hamiltonian's
H_HELP = ("energy h of the q0 plane: h = 2E, twice model.hamiltonian on the "
          "orbit (README, Command line)")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The bfmix argument parser, built once per process."""
    ap = _Parser(
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
    case3_point = argparse.ArgumentParser(add_help=False)
    for flag in ("--omega0", "--omega1", "--c0sq", "--c1sq", "--action"):
        case3_point.add_argument(flag, type=parse_rational, required=True)
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
    c2.add_argument("--h", type=parse_rational, required=True, help=H_HELP)

    an_sub.add_parser("case3", parents=[json_out, case3_point],
                      help="C0 != 0, C1 != 0, one transverse mode")

    ve = sub.add_parser("verify", parents=[json_out],
                        help="exact closed-form solution identities")
    ve.add_argument("--which", choices=list(model.CLOSED_FORMS),
                    required=True)
    ve.add_argument("--omega0", type=parse_rational, default=Q(1))
    ve.add_argument("--omegaj", type=parse_rational_list, default=None)
    ve.add_argument("--cj", type=parse_rational_list, default=None)
    ve.add_argument("--hj", type=parse_rational_list, default=None)
    ve.add_argument("--c0sq", type=parse_rational, default=None,
                    help=f"default 1, and {SEPARATRIX_C0SQ} for separatrix")
    ve.add_argument("--h", type=parse_rational, default=None, help=H_HELP)

    se = sub.add_parser("series", parents=[csv_out],
                        help="dump exact local series as CSV")
    se.add_argument("--what", choices=["wp", "qbar", "ve1", "mu2", "mu3"],
                    required=True)
    se.add_argument("--gbf", type=parse_rational, default=Q(1))
    se.add_argument("--omega0", type=parse_rational, default=Q(1))
    se.add_argument("--omegaj", type=parse_rational_list, default=[Q(1)])
    se.add_argument("--c0sq", type=parse_rational, default=Q(1))
    se.add_argument("--h", type=parse_rational, default=Q(0), help=H_HELP)
    se.add_argument("--order", type=int, default=16)
    se.add_argument("--pick-xi0", choices=["first", "second"], default=None)
    se.add_argument("--pick-xij", choices=["first", "second"], default=None)

    sw = sub.add_parser("sweep", parents=[csv_out, case3_point],
                        help="tabulate the splitting function d(t0)")
    sw.add_argument("--t0-min", type=float, default=0.0)
    sw.add_argument("--t0-max", type=float, default=3.2)
    sw.add_argument("--t0-samples", type=int, default=65)
    return ap


def _report(command: str, fields: dict) -> dict:
    """A JSON report: its header, then ``fields``."""
    return {"schema_version": SCHEMA_VERSION,
            "tool": {"name": "bfmix", "version": __version__},
            "command": command, **fields}


def _verdict_report(v: verdict_mod.IntegrabilityVerdict, command: str,
                    elapsed: float) -> dict:
    return _report(command, {
        "verdict": {
            "case_id": v.case_id,
            "outcome": v.outcome,
            "witness": {"kind": v.witness.kind, "data": v.witness.data},
        },
        "params": v.params,
        "details": v.details,
        "timing_seconds": round(elapsed, 6),
    })


def _write(text: str, path: Optional[str]):
    """Print the text, or write it to ``path``: as it is built first, a run
    that fails leaves no file, and an existing one as it was."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _case2_params(args, c0sq) -> model.ModelParams:
    """The case-2 point of the flags: every C_j = 0."""
    return model.make_params(args.omega0, args.omegaj, c0sq,
                             [Q(0)] * len(args.omegaj), args.gbf)


def _run_analyze(args) -> dict:
    t0 = time.perf_counter()
    if args.case == "case1":
        v = verdict_mod.analyze_case1(heun.reduce_case1(
            args.omega0, args.omega, args.gbf, args.csum))
    elif args.case == "case2":
        v = verdict_mod.analyze_case2(_case2_params(args, args.c0sq), args.h)
    else:
        v = verdict_mod.analyze_case3(args.omega0, args.omega1, args.c0sq,
                                      args.c1sq, args.action)
    return _verdict_report(v, "analyze", time.perf_counter() - t0)


def _refuse_no_separatrix(omega0, c0sq):
    """Refuse a point where 27 C0^2 > 8 w0^3: its q0 plane has no saddle."""
    if model.separatrix_constant(omega0, c0sq) < 0:
        raise model.NoSeparatrixError(
            f"no separatrix where 27 C0^2 > 8 w0^3: 27 C0^2 = {27 * c0sq}, "
            f"8 w0^3 = {8 * omega0 ** 3}")


def _verify_flags(args) -> dict:
    """The flags that ``verify --which`` reads (VERIFY_FLAGS), each given or
    defaulted; a flag it does not read is refused, not ignored."""
    reads = VERIFY_FLAGS[args.which]
    unread = [f"--{name}" for name in ("omegaj", "cj", "hj", "c0sq", "h")
              if name not in reads and getattr(args, name) is not None]
    if unread:
        raise ValueError(f"verify --which {args.which} reads no "
                         f"{', '.join(unread)}")
    return {name: default if getattr(args, name) is None
            else getattr(args, name) for name, default in reads.items()}


def _run_verify(args) -> tuple[dict, bool]:
    """(report, passed) of one ``verify`` run: its closed form's identity
    (``model.CLOSED_FORMS``), reduced exactly, for each coordinate."""
    f = _verify_flags(args)
    if args.which == "prop1":
        p = model.make_params(args.omega0, f["omegaj"], 0, f["cj"], 0)
        residual = model.case1_identity(p, f["hj"])
    elif args.which == "prop2":     # refuse what ``analyze case2`` refuses
        model.make_params(args.omega0, f["omegaj"], f["c0sq"],
                          [Q(0)] * len(f["omegaj"]), 0)
        residual = model.case2_identity(
            elliptic.invariants_from_energy(args.omega0, f["c0sq"], f["h"]))
    else:
        model.make_params(args.omega0, [], f["c0sq"], [], 0)
        _refuse_no_separatrix(args.omega0, f["c0sq"])
        residual = model.separatrix_identity(args.omega0, f["c0sq"])
    ok = all(r == "0" for r in residual.values())
    return _report("verify", {
        "which": args.which,
        "identity": model.CLOSED_FORMS[args.which],
        "residual": residual,
        "pass": ok,
    }), ok


def _series_rows(args):
    e = elliptic.invariants_from_energy(args.omega0, args.c0sq, args.h)
    order = Q(args.order)
    p = _case2_params(args, args.c0sq)
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
    n = lame.lame_index(p.g_bf)
    choice = variational.standard_choice(n)
    choice = variational.HigherVEChoice(args.pick_xi0 or choice.pick_xi0,
                                        args.pick_xij or choice.pick_xij)
    try:
        ctx = variational.ve1_context(p, e, order)
        result = variational.higher_ve_residues(ctx, choice)
    except InsufficientOrderError as exc:
        if n is None:
            raise
        raise InsufficientOrderError(
            f"{exc}; Lame index {n} with the pick ({choice.pick_xi0}, "
            f"{choice.pick_xij}) needs --order "
            f"{variational.chain_order(n, choice)}") from exc
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


def _sweep_rows(args):
    if not (math.isfinite(args.t0_min) and math.isfinite(args.t0_max)):
        raise ValueError(f"t0 range [{args.t0_min}, {args.t0_max}] must be "
                         "finite")
    if not math.isfinite(args.t0_max - args.t0_min):
        raise ValueError(f"t0 range [{args.t0_min}, {args.t0_max}] is wider "
                         "than the float range")
    if not 1 <= args.t0_samples <= MAX_SAMPLES:
        raise ValueError(f"--t0-samples {args.t0_samples} outside "
                         f"1..{MAX_SAMPLES}")
    _refuse_no_separatrix(args.omega0, args.c0sq)
    s = melnikov.setup(args.omega0, args.omega1, args.c0sq, args.c1sq,
                       args.action)
    yield "t0,d_num_re,d_num_im,d_closed_re,d_closed_im"
    yield from melnikov.sweep_csv_rows(
        s, _linspace(args.t0_min, args.t0_max, args.t0_samples))


def _json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def parse_command_line(argv=None) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, or the exit it
    makes, from one parse_known_args call: walk down from the root parser
    while the next argument names a subcommand, recording it under the
    subcommands' dest, and let the parser where the walk stops parse the
    rest, which is all that its parent parsers would hand it.  Arguments
    left over are refused by the root parser, as parse_args refuses them."""
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, parser, i = argparse.Namespace(), ap, 0
    while (parser.subcommands is not None and i < len(argv)
           and argv[i] in parser.subcommands.choices):
        setattr(args, parser.subcommands.dest, argv[i])
        parser = parser.subcommands.choices[argv[i]]
        i += 1
    args, extras = parser.parse_known_args(argv[i:], args)
    if extras:
        ap.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one bfmix command line and return its exit code.  The line is
    parsed once, by the parser of the subcommand it names
    (parse_command_line), not by each parser on the way down to it."""
    args = parse_command_line(argv)
    try:
        if args.command == "analyze":
            _write(_json_text(_run_analyze(args)), args.json)
            return 0
        if args.command == "verify":
            report, ok = _run_verify(args)
            _write(_json_text(report), args.json)
            if not ok:
                nonzero = "; ".join(
                    f"{q} residual {r}"
                    for q, r in report["residual"].items() if r != "0")
                print(f"verification failed: {args.which}: {nonzero}, not 0",
                      file=sys.stderr)
                return 3
            return 0
        rows = (_series_rows if args.command == "series" else _sweep_rows)
        _write("".join(row + "\n" for row in rows(args)), args.csv)
        return 0
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
