"""Command lines that ``cli.parse_command_line`` must parse as
``build_parser().parse_args`` does, and a check of that which needs only
the standard library:

    python3.X tests/helpers_cli.py

runs every line through both parses under that interpreter, prints each
mismatch and exits 1 if there is one.  argparse's internals differ between
the Python versions that ``requires-python`` admits, so the check is meant
to be run under each of them; the test suite runs the same corpus.
"""
import contextlib
import io
import sys
from pathlib import Path

_CASE1 = ["--omega0", "1", "--omega", "2", "--gbf", "1", "--csum", "3"]
_CASE2 = ["--gbf", "3", "--omega0", "1", "--omegaj", "2", "--c0sq", "1",
          "--h", "0"]
_CASE3 = ["--omega0", "1", "--omega1", "1", "--c0sq", "1/100", "--c1sq", "1",
          "--action", "3.0"]

#: id -> command line: valid lines of all six commands, -h at every level,
#: missing, unknown and extra subcommands, unknown and abbreviated flags,
#: values the types refuse, and "--" before and after the subcommand
CORPUS = {
    "case1": ["analyze", "case1", *_CASE1],
    "case2": ["analyze", "case2", *_CASE2],
    "case2-two-modes": ["analyze", "case2", "--gbf", "3", "--omega0", "1",
                        "--omegaj", "2,1", "--c0sq", "1", "--h", "0",
                        "--json", "out.json"],
    "case3": ["analyze", "case3", *_CASE3],
    "case3-equals-form": ["analyze", "case3", "--omega0=1", "--omega1=1e-400",
                          "--c0sq=1/100", "--c1sq=1e-401",
                          "--action=1e-400"],
    "verify": ["verify", "--which", "prop1", "--omegaj", "2,1/2", "--cj",
               "1,3/4", "--hj", "1/2,0"],
    "verify-removed-flag": ["verify", "--which", "prop2", "--tol", "1e-9"],
    "verify-defaults": ["verify", "--which", "separatrix"],
    "series": ["series", "--what", "wp", "--order", "8", "--csv", "out.csv"],
    "series-picks": ["series", "--what", "mu2", "--gbf", "3",
                     "--pick-xi0", "second"],
    "sweep": ["sweep", *_CASE3, "--t0-samples", "5", "--t0-min=-1"],
    "help-root": ["-h"],
    "help-root-before-command": ["--help", "analyze", "case3"],
    "help-analyze": ["analyze", "-h"],
    "help-analyze-before-case": ["analyze", "-h", "case3"],
    "help-case1": ["analyze", "case1", "-h"],
    "help-case2": ["analyze", "case2", "--help"],
    "help-case3-after-flags": ["analyze", "case3", "--omega0", "1", "-h"],
    "help-verify": ["verify", "-h"],
    "help-series": ["series", "-h"],
    "help-sweep": ["sweep", "--help"],
    "no-command": [],
    "no-case": ["analyze"],
    "missing-flags": ["analyze", "case3", "--omega0", "1"],
    "unknown-command": ["frobnicate"],
    "unknown-case": ["analyze", "case4", *_CASE3],
    "extra-case": ["analyze", "case3", "case3", *_CASE3],
    "extra-command": ["verify", "analyze", "--which", "prop1"],
    "flags-before-case": ["analyze", "--json", "x", "case3", *_CASE3],
    "unknown-flag": ["analyze", "case3", *_CASE3, "--bogus", "1"],
    "unknown-flag-first": ["--bogus", "analyze", "case3", *_CASE3],
    "two-unknown-args": ["sweep", *_CASE3, "--t0-min", "0", "x", "--y"],
    "abbreviated-flag": ["analyze", "case1", *_CASE1[:-2], "--cs", "3"],
    "abbreviated-flag-sweep": ["sweep", *_CASE3, "--t0-sam", "5"],
    "ambiguous-flag": ["analyze", "case3", "--omega", "1", *_CASE3[2:]],
    "bad-rational": ["analyze", "case3", "--omega0", "x", *_CASE3[2:]],
    "no-rational-in-list": ["analyze", "case2", *_CASE2[:4], "--omegaj", ",",
                            *_CASE2[6:]],
    "bad-choice": ["verify", "--which", "prop3"],
    "bad-int": ["series", "--what", "wp", "--order", "x"],
    "dashes-before-command": ["--", "analyze", "case3", *_CASE3],
    "dashes-before-case": ["analyze", "--", "case3", *_CASE3],
    "dashes-after-case": ["analyze", "case3", "--", *_CASE3],
    "dashes-last": ["analyze", "case3", *_CASE3, "--"],
}


def outcome(parse, argv):
    """("parsed", the namespace's fields) of ``parse(argv)``, or ("exit",
    code, stdout, stderr) when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    return "parsed", vars(args), out.getvalue(), err.getvalue()


def nested_parse(argv):
    """The parse of argparse's own nesting, which parse_command_line must
    reproduce."""
    from bfmix import cli
    return cli.build_parser().parse_args(argv)


def mismatches():
    """The ids of the CORPUS lines whose two parses differ."""
    from bfmix import cli
    return [name for name, argv in CORPUS.items()
            if outcome(cli.parse_command_line, argv)
            != outcome(nested_parse, argv)]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    bad = mismatches()
    for name in bad:
        print(f"mismatch: {name}: {CORPUS[name]}")
    print(f"Python {sys.version.split()[0]}: {len(CORPUS) - len(bad)} of "
          f"{len(CORPUS)} command lines parse alike")
    sys.exit(1 if bad else 0)
