import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

import helpers_cli
from bfmix import (cli, elliptic, heun, lame, melnikov, model, variational,
                   verdict)
from bfmix.model import make_params
from bfmix.series import InsufficientOrderError, PuiseuxSeries

SRC = Path(__file__).resolve().parent.parent / "src"


#: (g, w0, w_j, C0^2, h, first deciding order): integer indices at
#: w0 = w_j = C0^2 = 1, h = 0, then the survivor families at three (w0, h)
#: each, an N_f = 2 point and a C0^2 = 0 point
_W0_H = ((Q(1), Q(0)), (Q(2), Q(1)), (Q(1, 2), Q(-1)))
ORDER_GRID = [
    *(pytest.param(Q(n * (n + 1), 2), Q(1), [Q(1)], Q(1), Q(0),
                   4 * n - 1 if n > 1 else 4, id=f"index{n}")
      for n in (*range(1, 13), 15, 20, 21, 25, 30)),
    *(pytest.param(Q(3, 8), w0, [w0 / 4], Q(1), h, 7,
                   id=f"half-w0={w0}-h={h}") for w0, h in _W0_H),
    *(pytest.param(Q(35, 8), w0, [Q(55, 28) * w0], Q(72, 343) * w0 ** 3, h,
                   9, id=f"five-half-w0={w0}-h={h}") for w0, h in _W0_H),
    pytest.param(Q(3), Q(1), [Q(2), Q(1)], Q(1), Q(0), 7, id="index2-nf2"),
    pytest.param(Q(3), Q(1), [Q(2)], Q(0), Q(-1), 7, id="index2-c0sq0")]


def _record_contexts(monkeypatch):
    """The list of orders that the patched variational.ve1_context is
    called at."""
    ve1_context = variational.ve1_context
    orders = []

    def recorded(p, e, order):
        orders.append(order)
        return ve1_context(p, e, order)
    monkeypatch.setattr(variational, "ve1_context", recorded)
    return orders


class TestClassify:
    def test_case1_nonintegrable(self):
        v = verdict.analyze_case1(heun.reduce_case1(1, 2, 1, 3))
        assert v.case_id == "case1"
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "heun_B"
        assert v.witness.data["B"] == "3/32"

    def test_case1_dispatch_from_params(self):
        p = make_params(1, [2, 2], 0, [1, 2], 1)
        v = verdict.classify(p)
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "heun_B"

    def test_case1_tiny_exact_coupling(self):
        v = verdict.analyze_case1(heun.reduce_case1(1, 2, Q(1, 10 ** 9), 3))
        assert v.outcome == "NonIntegrable"

    def test_separable_boundary(self):
        p = make_params(1, [1], 1, [0], 0)
        v = verdict.classify(p)
        assert v.outcome == "Separable"
        assert v.witness.kind == "none"

    def test_case2_index_one(self):
        p = make_params(1, [1], 1, [0], 1)
        v = verdict.classify(p)
        assert v.case_id == "case2"
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "ve_residue"
        assert v.witness.data["value"] == "2/3"
        assert v.witness.data["order"] == 3

    def test_case2_non_lame_coupling(self):
        p = make_params(1, [1], 1, [0], Q(1, 3))
        v = verdict.classify(p)
        assert v.witness.kind == "lame_monodromy"

    def test_case2_theorem5_failure(self):
        # half-integer index, quarter-frequency condition violated
        p = make_params(1, [1], 1, [0], Q(3, 8))
        v = verdict.classify(p)
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "theorem5_failure"

    def test_case2_survivor_half_index(self):
        p = make_params(1, [Q(1, 4)], 1, [0], Q(3, 8))
        v = verdict.classify(p)
        assert v.outcome == "NecessaryConditionsSurvived"

    def test_case2_m6_zero_offset_gets_exact_log_witness(self):
        # n = 11/2 (m = 6 = 0 mod 6) with B_j = 0: no clause of the
        # hand-listed tree applies; the VE1 resonance coefficient of the
        # block is nonzero at the user's h
        p = make_params(1, [Q(143, 12)], 1, [0], Q(143, 8))
        v = verdict.classify(p, h=0)
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "theorem5_failure"
        assert v.witness.data["block"] == 1
        ((cid, value),) = v.witness.data["failed_conditions"]
        assert cid == "m=6, normal_1, h = 0: resonance coefficient = 0"
        assert value == "-8863855/6718464"
        (t5,) = v.details["theorem5"]
        assert t5["passed_case"] == "none"
        assert t5["failed_conditions"] == [[cid, value]]

    def test_case2_large_integer_index(self):
        p = make_params(1, [1], 1, [0], 6)        # n = 3
        v = verdict.classify(p)
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "ve_residue"
        assert v.witness.data["value"] == "-128/275"

    def test_case2_index_two_first_run_pick_decides(self):
        # index 2 runs ("first", "first") first, and it gives the witness
        p = make_params(1, [2], 1, [0], 3)
        v = verdict.classify(p)
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "ve_residue"
        assert v.witness.data["value"] == "8/5"
        assert v.witness.data["choice"] == {"pick_xi0": "first",
                                            "pick_xij": "first"}
        assert "found_by_scan" not in v.witness.data

    def test_case2_index_two_scan_after_a_silent_first_pick(self,
                                                            monkeypatch):
        """With the standard pick ("first", "second") run first at index 2,
        the first chain is silent; the scan still reaches ("first", "first")
        on the same order-7 context and marks the witness found_by_scan."""
        def standard_first(n):
            first = variational.standard_choice(n)
            return (first, *(ch for ch in variational.SCAN_CHOICES
                             if ch != first))
        monkeypatch.setattr(variational, "run_order", standard_first)
        orders = _record_contexts(monkeypatch)
        v = verdict.analyze_case2(make_params(1, [2], 1, [0], 3), Q(0))
        assert orders == [7]
        assert v.witness == verdict.Witness("ve_residue", {
            "order": 3, "value": "8/5", "block": "normal_1", "row": "first",
            "choice": {"pick_xi0": "first", "pick_xij": "first"},
            "found_by_scan": True})

    # builds and pipelines count the work of the one chain, at the order
    # the first run pick's exponents certify
    @pytest.mark.parametrize("g, wj, c0sq, builds, pipelines", [
        # survivors: the standard pick, then the 3 scan picks that differ
        (Q(3, 8), Q(1, 4), Q(1), 1, 4),
        (Q(3), Q(2), Q(1), 1, 1),              # index 2: the first run pick decides
        (Q(1), Q(1), Q(1), 1, 1),              # index 1: the standard pick decides
        (Q(35, 8), Q(55, 28), Q(72, 343), 1, 4),
    ])
    def test_case2_pipeline_counts(self, monkeypatch, g, wj, c0sq, builds,
                                   pipelines):
        from bfmix import variational as V
        calls = {"build_ve1": 0, "higher_ve_residues": 0}
        for name in calls:
            def counted(*args, _fn=getattr(V, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(V, name, counted)
        verdict.analyze_case2(make_params(1, [wj], c0sq, [0], g), Q(0))
        assert calls == {"build_ve1": builds,
                         "higher_ve_residues": pipelines}

    # series products and scale calls per call: the terms of each
    # first-order pick are built once per context, so a survivor's 4 chains
    # build 2 tangential and 2 normal picks' terms, the forcings that
    # combine them scale nothing, and each VE2 block runs its Frobenius
    # recursion with no product
    @pytest.mark.parametrize("g, wj, c0sq, products, scales", [
        (Q(1), Q(1), Q(1), 22, 15),
        (Q(3), Q(2), Q(1), 22, 15),
        (Q(3, 8), Q(1, 4), Q(1), 59, 24),
        (Q(35, 8), Q(55, 28), Q(72, 343), 59, 25)],
        ids=["index1", "index2", "half", "five-half"])
    def test_case2_series_work(self, monkeypatch, g, wj, c0sq, products,
                               scales):
        calls = {"__mul__": 0, "scale": 0}
        for name in calls:
            def counted(*args, _fn=getattr(PuiseuxSeries, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(PuiseuxSeries, name, counted)
        verdict.analyze_case2(make_params(1, [wj], c0sq, [0], g), Q(0))
        assert calls == {"__mul__": products, "scale": scales}

    @pytest.mark.parametrize("g, wj, c0sq", [
        (Q(1), [Q(1)], Q(1)), (Q(3), [Q(2)], Q(1)), (Q(3, 8), [Q(1, 4)], Q(1)),
        (Q(35, 8), [Q(55, 28)], Q(72, 343)), (Q(3), [Q(2), Q(2)], Q(1)),
        (Q(6), [Q(1)], Q(1)), (Q(10), [Q(1)], Q(1))],
        ids=["index1", "index2", "half", "five-half", "index2-nf2", "index3",
             "index4"])
    def test_case2_verdict_is_order_independent(self, g, wj, c0sq):
        """At each order 2-30 the chain of every pick either raises or reads
        the rows it reads at the pick's chain_order, and it raises one order
        below that."""
        p = make_params(1, wj, c0sq, [0] * len(wj), g)
        e = elliptic.invariants_from_energy(1, c0sq, 0)
        n = lame.lame_index(p.g_bf)
        orders = {ch: variational.chain_order(n, ch)
                  for ch in variational.SCAN_CHOICES}
        want = {ch: variational.higher_ve_residues(
                    variational.ve1_context(p, e, order), ch).rows
                for ch, order in orders.items()}
        for order in range(2, 31):
            try:
                ctx = variational.ve1_context(p, e, order)
            except InsufficientOrderError:
                assert order < min(orders.values())
                continue
            for ch in variational.SCAN_CHOICES:
                try:
                    rows = variational.higher_ve_residues(ctx, ch).rows
                except InsufficientOrderError:
                    assert order < orders[ch], (ch, order)
                    continue
                assert order >= orders[ch], (ch, order)
                assert rows == want[ch], (ch, order)

    @pytest.mark.parametrize("g, w0, wj, c0sq, h, order", ORDER_GRID)
    def test_case2_derived_order_is_the_first_deciding_one(
            self, monkeypatch, g, w0, wj, c0sq, h, order):
        """analyze_case2 builds its one VE1 context at the order the
        standard pick's exponents certify; one order less raises, and twice
        the order reads the same rows."""
        p = make_params(w0, wj, c0sq, [0] * len(wj), g)
        orders = _record_contexts(monkeypatch)
        verdict.analyze_case2(p, h)
        assert orders == [order]
        e = elliptic.invariants_from_energy(w0, c0sq, h)
        ch = variational.standard_choice(lame.lame_index(g))
        with pytest.raises(InsufficientOrderError):
            variational.higher_ve_residues(
                variational.ve1_context(p, e, order - 1), ch)
        assert variational.higher_ve_residues(
            variational.ve1_context(p, e, 2 * order), ch).rows == \
            variational.higher_ve_residues(
                variational.ve1_context(p, e, order), ch).rows

    def test_case2_scan_pick_deepens_the_context(self, monkeypatch):
        """A scan pick that needs more terms than the context holds gets a
        deeper one: with ("second", "second") standard at index 1 (order 4,
        no witness), ("first", "first") runs at its order 7 and finds 2/3."""
        monkeypatch.setitem(variational.STANDARD_CHOICES, Q(1),
                            variational.HigherVEChoice("second", "second"))
        orders = _record_contexts(monkeypatch)
        v = verdict.analyze_case2(make_params(1, [1], 1, [0], 1), Q(0))
        assert orders == [4, 7]
        assert v.witness == verdict.Witness("ve_residue", {
            "order": 3, "value": "2/3", "block": "normal_1", "row": "first",
            "choice": {"pick_xi0": "first", "pick_xij": "first"},
            "found_by_scan": True})

    @pytest.mark.parametrize("g, wj, low", [(Q(1), [Q(1)], 2),
                                            (Q(3), [Q(2)], 4)],
                             ids=["index1", "index2"])
    def test_case2_order_too_low_raises(self, monkeypatch, capsys, g, wj,
                                        low):
        """An order below the one the chain needs is not retried: the
        analysis raises, and the CLI exits 2."""
        monkeypatch.setattr(variational, "chain_order",
                            lambda n, choice: low)
        with pytest.raises(InsufficientOrderError):
            verdict.analyze_case2(make_params(1, wj, 1, [0], g), Q(0))
        assert cli.main(["analyze", "case2", "--gbf", str(g), "--omega0", "1",
                         "--omegaj", str(wj[0]), "--c0sq", "1",
                         "--h", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: order too low to decide: ")
        assert not captured.out

    def test_case3_simple_zeros(self):
        p = make_params(1, [1], Q(1, 100), [1], Q(1, 1000))
        v = verdict.classify(p, action_I=3.0)
        assert v.case_id == "case3"
        assert v.outcome == "NonIntegrable"
        assert v.witness.kind == "melnikov"
        assert v.witness.data["zeros"]

    def test_case3_oval_threshold_survives(self):
        # I^2 = 2 w1 C1^2 exactly: the splitting amplitude is exactly zero
        p = make_params(1, [Q(1, 2)], Q(1, 100), [Q(1, 10)], Q(1, 1000))
        v = verdict.classify(p, action_I=Q(1, 10))
        assert v.outcome == "NecessaryConditionsSurvived"
        assert v.witness.kind == "none"
        assert v.details["fit_residual"] == "inf"

    def test_mixed_case_out_of_scope(self):
        p = make_params(1, [1, 1], 1, [1, 1], 1)
        with pytest.raises(verdict.OutOfScopeError):
            verdict.classify(p)

    @pytest.mark.parametrize("c0sq, Cs, case", [
        (0, [1, 2], "case1"), (1, [0, 0], "case2"), (0, [0], "case2"),
        (0, [0, 0], "case2"), (1, [1], "case3")])
    def test_case_of_each_pattern(self, c0sq, Cs, case):
        assert verdict._case_of(make_params(1, [1] * len(Cs), c0sq, Cs, 1)) \
            == case

    @pytest.mark.parametrize("c0sq, Cs, message", [
        (0, [1, 0], "C0 = 0 with some C_j zero and others nonzero"),
        (1, [1, 0], "C0 != 0 with a nonzero C_j among N_f = 2"),
        (1, [1, 1], "C0 != 0 with a nonzero C_j among N_f = 2")])
    def test_case_of_names_the_rejected_pattern(self, c0sq, Cs, message):
        with pytest.raises(verdict.OutOfScopeError, match=message):
            verdict._case_of(make_params(1, [1] * len(Cs), c0sq, Cs, 1))

    def test_deterministic(self):
        p = make_params(1, [1], 1, [0], 1)
        assert verdict.classify(p) == verdict.classify(p)

    def test_snapshot_names_c0_only_where_c0sq_has_a_root(self):
        params = verdict.classify(make_params(1, [1], 2, [0], 1)).params
        assert params["C0_sq"] == "2" and "C0" not in params
        params = verdict.classify(make_params(1, [1], Q(9, 4), [0], 1)).params
        assert (params["C0"], params["C0_sq"]) == ("3/2", "9/4")


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports bfmix from
    ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_cli(*args):
    return run_python("-m", "bfmix.cli", *args)


class TestCli:
    def test_case2_reference_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "case2", "--gbf", "1",
                       "--omega0", "1", "--omegaj", "1", "--c0sq", "1",
                       "--h", "0", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["verdict"]["outcome"] == "NonIntegrable"
        assert report["verdict"]["witness"]["data"]["value"] == "2/3"
        # exact values serialize as strings, never floats
        assert report["details"]["g2"] == "16/3"

    def test_report_roundtrip(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "case1", "--omega0", "1",
                       "--omega", "2", "--gbf", "1", "--csum", "3",
                       "--json", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["verdict"]["outcome"] == "NonIntegrable"
        assert report["verdict"]["witness"]["data"]["B"] == "3/32"
        assert json.loads(json.dumps(report, sort_keys=True)) == report

    def test_case1_separable_candidate(self):
        proc = run_cli("analyze", "case1", "--omega0", "1", "--omega", "2",
                       "--gbf", "0", "--csum", "3")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"]["outcome"] == "Separable"

    def test_missing_required_flag_is_usage_error(self):
        proc = run_cli("analyze", "case2", "--gbf", "1", "--omega0", "1",
                       "--omegaj", "1", "--h", "0")
        assert proc.returncode == 2

    def test_malformed_rational_is_usage_error(self):
        proc = run_cli("analyze", "case1", "--omega0", "x/y", "--omega", "2",
                       "--gbf", "1", "--csum", "3")
        assert proc.returncode == 2

    def test_verify_separatrix(self):
        proc = run_cli("verify", "--which", "separatrix", "--omega0", "1",
                       "--c0sq", "1/100")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["pass"] is True
        assert report["residual"] == {"q0": "0"}

    def test_verify_separatrix_at_its_defaults(self, capsys):
        # the default C0^2 of separatrix is 1/100, not prop2's 1, at which
        # the q0 plane has no separatrix
        assert cli.main(["verify", "--which", "separatrix"]) == 0
        default = capsys.readouterr()
        assert cli.main(["verify", "--which", "separatrix",
                         "--c0sq", "1/100"]) == 0
        assert default.out == capsys.readouterr().out
        assert json.loads(default.out)["pass"] is True

    def test_verify_prop1_and_prop2(self):
        for which, extra in (("prop1", ["--omegaj", "2", "--cj", "1"]),
                             ("prop2", ["--c0sq", "1", "--h", "0"])):
            proc = run_cli("verify", "--which", which, *extra)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["pass"] is True

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        # the program's own inputs to each identity, off by one part in
        # 10^9: a nonzero residual is what exits 3, with no knob to set
        invariants = elliptic.invariants_from_energy
        constant = model.separatrix_constant
        monkeypatch.setattr(elliptic, "invariants_from_energy",
                            lambda *args: dataclasses.replace(
                                invariants(*args),
                                g3=invariants(*args).g3 * (1 + Q(1, 10**9))))
        monkeypatch.setattr(model, "separatrix_constant",
                            lambda *args: constant(*args) * (1 + Q(1, 10**9)))
        for which, residual in (
                ("prop2", "-43/6750000000"),
                ("separatrix", "773/675000000000")):
            assert cli.main(["verify", "--which", which]) == 3
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            assert report["pass"] is False
            assert report["residual"] == {"q0": residual}
            assert captured.err == (f"verification failed: {which}: q0 "
                                    f"residual {residual}, not 0\n")
        assert cli.main(["verify", "--which", "prop1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "--which", "prop1", "--omegaj", "1e300"],
        ["verify", "--which", "separatrix", "--omega0", "1e200"],
        ["verify", "--which", "prop1", "--omegaj", "1e-300", "--cj", "1",
         "--hj", "0"],
        ["verify", "--which", "prop2", "--c0sq", "1e30"],
        ["verify", "--which", "prop1", "--hj", "1e200"]],
        ids=["prop1-omegaj-overflow", "separatrix-omega0-overflow",
             "prop1-omegaj-underflow", "prop2-c0sq-1e30", "prop1-hj-1e200"])
    def test_verify_across_the_float_range(self, argv, capsys):
        # each line once exited 2 (a float beyond the range, or a pole of
        # wp) or 3 (a residual of nan); the identity is exact at any size
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert set(report["residual"].values()) == {"0"}

    @pytest.mark.parametrize("which, flags", [
        ("prop1", ["--c0sq", "1"]), ("prop1", ["--h", "0"]),
        ("prop2", ["--cj", "0,0,0"]), ("prop2", ["--hj", "9"]),
        ("separatrix", ["--omegaj", "5"]), ("separatrix", ["--cj", "0"]),
        ("separatrix", ["--hj", "1,2,3"]), ("separatrix", ["--h", "7"]),
        ("separatrix", ["--omegaj", "5", "--cj", "0", "--hj", "1,2,3",
                        "--h", "7"]),
        ("prop2", ["--cj", "0,0,0", "--hj", "9"])],
        ids=["prop1-c0sq", "prop1-h", "prop2-cj", "prop2-hj",
             "separatrix-omegaj", "separatrix-cj", "separatrix-hj",
             "separatrix-h", "separatrix-all", "prop2-both"])
    def test_verify_refuses_a_flag_it_does_not_read(self, which, flags,
                                                    capsys):
        # a flag the identity does not read would be dropped without a
        # word, so the line is a usage error naming every such flag
        assert cli.main(["verify", "--which", which, *flags]) == 2
        captured = capsys.readouterr()
        unread = ", ".join(f for f in flags if f.startswith("--"))
        assert captured.err == (f"error: verify --which {which} reads no "
                                f"{unread}\n")
        assert not captured.out

    @pytest.mark.parametrize("flag", ["--gbf=1"])
    def test_verify_refuses_the_removed_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--which", "prop2", flag])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {flag}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_verify_tol_must_be_positive_and_finite(self, tol, capsys):
        # the identities are exact, so verify takes no tolerance: a bad
        # one is a usage error like any other
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--which", "separatrix", f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --tol={tol}" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("argv, code", [
        (["series", "--what", "mu3", "--gbf", "15/8", "--omegaj", "1/4"], 3),
        (["series", "--what", "mu2", "--gbf", "3/8", "--omegaj", "1"], 2)],
        ids=["mu3-second-order-log", "mu2-first-order-log"])
    def test_failing_series_dump_leaves_the_csv_path_alone(
            self, argv, code, tmp_path, capsys):
        """The rows are computed before the file is opened: a dump that
        fails creates no file and keeps an existing one's bytes."""
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--csv", str(out)]) == code
        assert not out.exists()
        out.write_bytes(b"kept\n")
        assert cli.main([*argv, "--csv", str(out)]) == code
        assert out.read_bytes() == b"kept\n"
        assert not capsys.readouterr().out

    def test_series_wp_csv(self, tmp_path):
        out = tmp_path / "wp.csv"
        proc = run_cli("series", "--what", "wp",
                       "--omega0", "1", "--c0sq", "1", "--h", "0",
                       "--order", "8", "--csv", str(out))
        assert proc.returncode == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "-2,1,1"
        assert rows[1] == "2,4,15"

    def test_series_mu2_index_two(self, tmp_path):
        out = tmp_path / "mu2.csv"
        proc = run_cli("series", "--what", "mu2",
                       "--gbf", "3", "--omega0", "1", "--omegaj", "1",
                       "--c0sq", "1", "--h", "0", "--order", "24",
                       "--pick-xi0", "first", "--pick-xij", "first",
                       "--csv", str(out))
        assert proc.returncode == 0, proc.stderr
        text = out.read_text().strip().splitlines()
        start = text.index("# normal_1 row_second") + 1
        block = {}
        for row in text[start:]:
            if row.startswith("#"):
                break
            e, num, den = row.split(",")
            block[Q(e)] = Q(int(num), int(den))
        # deepest poles of the second-row integrand for this configuration
        assert block[Q(-7)] == 12
        assert block[Q(-5)] == -8
        assert block[Q(-3)] == Q(-112, 15)
        assert Q(-1) not in block            # exact zero: no stored term

    def test_series_mu2_first_order_log_is_usage_error(self, capsys):
        # n = 1/2 with B_j != 0: VE1 already needs log t, so VE2 is undefined
        assert cli.main(["series", "--what", "mu2", "--gbf", "3/8",
                         "--omegaj", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: logarithm already at first order: right-hand side -3/2 "
            "at the resonance t^3/2\n")

    def test_series_mu3_second_order_log_is_internal_failure(self, capsys,
                                                             monkeypatch):
        # no known point puts log t into VE2, so a wrapped chain stops there
        # with a nonzero row 1 in the tangential block; mu2 still dumps
        argv = ["series", "--gbf", "1", "--omegaj", "1"]
        assert cli.main([*argv, "--what", "mu2"]) == 0
        mu2 = capsys.readouterr().out
        chain = variational.higher_ve_residues

        def stopped_at_ve2(ctx, choice):
            res = chain(ctx, choice)
            rows2 = ((Q(1), Q(0)),) + res.rows[0][1:]
            return variational.HigherVEResult(choice, (rows2,),
                                              res.forcings[:1])

        monkeypatch.setattr(variational, "higher_ve_residues", stopped_at_ve2)
        assert cli.main([*argv, "--what", "mu3"]) == 3
        captured = capsys.readouterr()
        assert "second order already carries a logarithm" in captured.err
        assert not captured.out
        assert cli.main([*argv, "--what", "mu2"]) == 0
        assert capsys.readouterr().out == mu2

    def test_series_mu3_at_a_second_order_log_point(self, capsys):
        # n = 3/2, w_j = w0/4: VE1 is log-free at h = 0 (analyze rejects the
        # point at h = 1), and the standard pick's VE2 tangential row 1 is -3/4
        argv = ["series", "--gbf", "15/8", "--omegaj", "1/4"]
        assert cli.main([*argv, "--what", "mu3"]) == 3
        assert "second order already carries a logarithm" in \
            capsys.readouterr().err
        assert cli.main([*argv, "--what", "mu2"]) == 0
        assert capsys.readouterr().out.startswith("# tangential row_first\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "case2", "--gbf", "1", "--omega0", "1", "--omegaj", "1",
         "--c0sq=-1", "--h", "0"],
        ["verify", "--which", "prop2", "--c0sq=-1"],
        ["series", "--what", "wp", "--c0sq=-1"],
        ["series", "--what", "qbar", "--c0sq=-1"]],
        ids=["analyze-case2", "verify-prop2", "series-wp", "series-qbar"])
    def test_negative_c0sq_is_usage_error(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: C0^2 must be nonnegative\n"
        assert captured.out == ""

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--omega0", "1",
                       "--omega1", "1", "--c0sq", "1/100", "--c1sq", "1",
                       "--action", "3.0", "--t0-samples", "5",
                       "--csv", str(out))
        assert proc.returncode == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t0,d_num_re,d_num_im,d_closed_re,d_closed_im"
        assert len(rows) == 6

    def test_case3_analysis(self, tmp_path):
        out = tmp_path / "case3.json"
        proc = run_cli("analyze", "case3", "--omega0", "1",
                       "--omega1", "1", "--c0sq", "1/100", "--c1sq", "1",
                       "--action", "3.0", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["verdict"]["outcome"] == "NonIntegrable"
        assert report["verdict"]["witness"]["kind"] == "melnikov"


    @pytest.mark.parametrize("argv", [
        ["series", "--what", "mu3", "--order", "2"],
        ["series", "--what", "mu2", "--order=-1"]],
        ids=["series-mu3-order2", "series-mu2-order-1"])
    def test_order_too_low_is_usage_error(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: order too low to decide: ")

    def test_ve1_dump_below_order_2_cuts_the_order_16_dump(self, capsys):
        """VE1 at order P is exact below t^P for every P >= -2, though q0^2
        is built only at max(P, 2); below -2 the dump exits 2."""
        def dump(order):
            rc = cli.main(["series", "--what", "ve1", f"--order={order}"])
            return rc, capsys.readouterr()

        _, high = dump(16)
        for order in (-2, -1, 0, 1, 2):
            rc, low = dump(order)
            assert rc == 0
            want = [row for row in high.out.splitlines()
                    if row.startswith("#") or Q(row.split(",")[0]) < order]
            assert low.out.splitlines() == want
        rc, low = dump(-3)
        assert rc == 2 and not low.out
        assert low.err.startswith("error: order too low to decide: ")

    @pytest.mark.parametrize("c0sq, c0", [("2", None), ("9/4", "3/2")])
    def test_case2_report_names_c0_only_where_c0sq_has_a_root(
            self, c0sq, c0, capsys):
        assert cli.main(["analyze", "case2", "--gbf", "1", "--omega0", "1",
                         "--omegaj", "1", "--c0sq", c0sq, "--h", "0"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert params["C0_sq"] == c0sq
        assert params.get("C0") == c0

    @pytest.mark.parametrize("gbf, n, failed", [
        ("-1/9", "-1/3", [["index in a solvable family", "-1/3"]]),
        ("-3/32", "-1/4",
         [["case3 branch a: c2 = 0", "-3/4"],
          ["case3 branch a: b1^2 - 3 a1 c1 = 0", "64"],
          ["case3 branch b: c2 b1 - 3 a1 d2 = 0", "6"],
          ["case3 branch b: 2 b1^3 - 9 a1 b1 c1 + 27 a1^2 d1 = 0",
           "-2752"]])])
    def test_attractive_coupling_has_its_lame_index(self, gbf, n, failed,
                                                    capsys):
        assert cli.main(["analyze", "case2", f"--gbf={gbf}", "--omega0", "1",
                         "--omegaj", "1", "--c0sq", "1", "--h", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["details"]["lame_index"] == n
        witness = report["verdict"]["witness"]
        assert witness["kind"] == "theorem5_failure"
        assert witness["data"]["failed_conditions"] == failed

    def test_double_exponent_index_is_not_decided(self, capsys):
        assert cli.main(["analyze", "case2", "--gbf=-1/8", "--omega0", "1",
                         "--omegaj", "1", "--c0sq", "1", "--h", "0"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: n = -1/2 (g_bf = -1/8): ")
        assert "double exponent" in captured.err

    def test_case2_index_21_exits_0_with_exact_residue(self, capsys):
        # order 83, past the old fixed list of orders, which ended at 80
        assert cli.main(["analyze", "case2", "--gbf", "231", "--omega0", "1",
                         "--omegaj", "1", "--c0sq", "1", "--h", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["details"]["lame_index"] == "21"
        witness = report["verdict"]["witness"]
        assert witness["kind"] == "ve_residue"
        assert witness["data"]["order"] == 3
        assert Q(witness["data"]["value"]) != 0

    @pytest.mark.parametrize("argv", [
        ["analyze", "case1", "--omega0", "1", "--omega", "2", "--gbf", "1",
         "--csum", "3", "--csv", "out.csv"],
        ["analyze", "case2", "--gbf", "1", "--omega0", "1", "--omegaj", "1",
         "--c0sq", "1", "--h", "0", "--csv", "out.csv"],
        ["verify", "--which", "separatrix", "--csv", "out.csv"],
        ["series", "--what", "wp", "--json", "out.json"],
        ["sweep", "--omega0", "1", "--omega1", "1", "--c0sq", "1/100",
         "--c1sq", "1", "--action", "3.0", "--json", "out.json"]],
        ids=["case1-csv", "case2-csv", "verify-csv", "series-json",
             "sweep-json"])
    def test_output_flag_the_command_does_not_write(self, argv, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["analyze", "case2", "--gbf", "1", "--omega0", "1", "--omegaj", "1",
         "--c0sq", "1", "--h", "0", "--json"],
        ["verify", "--which", "prop1", "--json"],
        ["series", "--what", "wp", "--csv"],
        ["sweep", "--omega0", "1", "--omega1", "1", "--c0sq", "1/100",
         "--c1sq", "1", "--action", "3.0", "--t0-samples", "5", "--csv"]],
        ids=["analyze-json", "verify-json", "series-csv", "sweep-csv"])
    def test_unwritable_output_path_is_usage_error(self, argv, tmp_path,
                                                   capsys):
        path = tmp_path / "missing" / "out"
        assert cli.main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: [Errno 2] No such file or "
                                f"directory: '{path}'\n")
        assert not captured.out

    @pytest.mark.parametrize("extra", [
        ["--t0-min", "nan"], ["--t0-max", "inf"], ["--t0-min=-inf"],
        ["--t0-samples", str(cli.MAX_SAMPLES + 1)],
        ["--t0-samples", "0"]],
        ids=["t0min-nan", "t0max-inf", "t0min-minus-inf", "samples-above-cap",
             "samples-zero"])
    def test_sweep_range_is_checked(self, extra, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the range reached melnikov.setup")
        monkeypatch.setattr(cli.melnikov, "setup", no_grid)
        assert cli.main(["sweep", "--omega0", "1", "--omega1", "1",
                         "--c0sq", "1/100", "--c1sq", "1", "--action", "3.0",
                         *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    @pytest.mark.parametrize("a, b, n", [
        (0.0, 3.2, 65), (-1.0, 2.0, 17), (0.1, 0.7, 3), (0.3, 0.3, 4),
        (2.5, 2.5, 1), (-0.0, 1.0, 1), (-0.0, -0.0, 2), (5.0, -3.0, 7)])
    def test_sweep_grid_is_linspace(self, a, b, n):
        assert ([repr(t) for t in cli._linspace(a, b, n)]
                == [repr(float(t)) for t in np.linspace(a, b, n)])

    @pytest.mark.parametrize("argv", [
        ["analyze", "case3", "--omega1", "1", "--c1sq", "1", "--action", "3"],
        ["verify", "--which", "separatrix"],
        ["sweep", "--omega1", "1", "--c1sq", "1", "--action", "3"]],
        ids=["analyze", "verify", "sweep"])
    @pytest.mark.parametrize("omega0, c0sq, h_star", [
        ("3", "8", "12"), ("1/3", "8/729", "4/27")])
    def test_double_root_has_no_separatrix(self, argv, omega0, c0sq, h_star,
                                           capsys):
        # on 27 C0^2 = 8 w0^3 the largest root of the discriminant cubic is
        # the double root 4 w0^2/3, where a = 0; the floats of 1/3 and 8/729
        # miss the curve
        assert cli.main([*argv, "--omega0", omega0, "--c0sq", c0sq]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: no separatrix on 27 C0^2 = 8 w0^3: h* = 4 w0^2/3 = "
            f"{h_star} is a double root of the discriminant cubic, so a = 0\n")
        assert not captured.out

    @pytest.mark.parametrize("argv", [
        ["verify", "--which", "separatrix", "--c0sq", "1"],
        ["verify", "--which", "separatrix", "--omega0", "1/2",
         "--c0sq", "1/25"],
        ["verify", "--which", "separatrix", "--omega0", "1/2",
         "--c0sq", "1/20"],
        ["sweep", "--omega0", "1", "--omega1", "1", "--c0sq", "1",
         "--c1sq", "1", "--action", "3"],
        ["verify", "--which", "separatrix", "--c0sq=1e400"],
        ["sweep", "--omega0=1", "--omega1=1", "--c0sq=1e400", "--c1sq=1",
         "--action=3"]],
        ids=["verify", "verify-pool-4", "verify-pool-5", "sweep",
             "verify-c0sq-1e400", "sweep-c0sq-1e400"])
    def test_no_separatrix_is_usage_error(self, argv, tmp_path, capsys):
        # 27 C0^2 > 8 w0^3: the q0 plane has no saddle, so no separatrix to
        # check or to sweep (verify exited 3 with a residual of 2.72, 0.467
        # and 0.511; sweep printed its table); the exact test comes before
        # any float, so a C0^2 beyond the float range is refused alike
        path = tmp_path / "out"
        flag = "--json" if argv[0] == "verify" else "--csv"
        assert cli.main([*argv, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: no separatrix where 27 C0^2 > 8 w0^3: 27 C0^2 = ")
        assert not captured.out and not path.exists()

    @pytest.mark.parametrize("omega0, c0sq", [("1", "1"), ("1/2", "1/25"),
                                              ("1/2", "1/20"), ("1", "1e300")])
    def test_analyze_case3_answers_without_separatrix(self, omega0, c0sq,
                                                      capsys):
        # ROADMAP item 2 decides these points; until then case 3 answers,
        # from the root below -w0 of a^2 (a + w0) = K, wherever K/w0^3 is a
        # float
        assert cli.main(["analyze", "case3", "--omega0", omega0, "--omega1",
                         "1", "--c0sq", c0sq, "--c1sq", "1",
                         "--action", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["outcome"] == "NonIntegrable"

    def test_separatrix_just_inside_the_curve(self, capsys):
        # 27 C0^2 = 8 w0^3 (1 - 10^-9): a = 1.2e-5, not the 0.577 of a
        # polished h* = 0.333333332888889 that was no root of the cubic
        c0sq = "7999999992/27000000000"
        assert cli.main(["analyze", "case3", "--omega0", "1", "--omega1",
                         "1", "--c0sq", c0sq, "--c1sq", "1",
                         "--action", "3"]) == 0
        details = json.loads(capsys.readouterr().out)["details"]
        assert float(details["h_star"]) == pytest.approx(1.3333333328888943,
                                                         rel=1e-15)
        assert float(details["a"]) == pytest.approx(1.2171538316056596e-5,
                                                    rel=1e-15)
        assert float(details["quoted_amplitude_im"]) < 1e-3
        assert cli.main(["verify", "--which", "separatrix", "--omega0", "1",
                         "--c0sq", c0sq]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_no_command_imports_numpy(self):
        argvs = [
            ["analyze", "case1", "--omega0", "1", "--omega", "2", "--gbf", "1",
             "--csum", "3"],
            ["analyze", "case2", "--gbf", "1", "--omega0", "1", "--omegaj",
             "1", "--c0sq", "1", "--h", "0"],
            ["analyze", "case3", "--omega0", "1", "--omega1", "1", "--c0sq",
             "1/100", "--c1sq", "1", "--action", "3"],
            ["series", "--what", "mu3"],
            ["sweep", "--omega0", "1", "--omega1", "1", "--c0sq", "1/100",
             "--c1sq", "1", "--action", "3", "--t0-samples", "5"],
            ["verify", "--which", "prop1"],
            ["verify", "--which", "prop2"],
            ["verify", "--which", "separatrix"]]
        script = (
            "import contextlib, io, json, sys\n"
            "from bfmix import cli\n"
            "loaded = ['numpy' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
        proc = run_python("-c", script, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        # after the import and after each command
        assert json.loads(proc.stdout) == [False] * (len(argvs) + 1)

    def test_commands_run_without_numpy(self):
        # an environment that lacks numpy: importing it raises ImportError
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from bfmix import cli\n"
            "reports = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    reports.append(json.loads(out.getvalue()))\n"
            "print(json.dumps(reports))\n")
        argvs = [["analyze", "case2", "--gbf", "1", "--omega0", "1",
                  "--omegaj", "1", "--c0sq", "1", "--h", "0"],
                 ["verify", "--which", "prop1"]]
        proc = run_python("-c", script, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        case2, prop1 = json.loads(proc.stdout)
        assert case2["verdict"]["outcome"] == "NonIntegrable"
        assert prop1["pass"] is True

    def test_case3_oval_threshold_exits_0(self, capsys):
        assert cli.main(["analyze", "case3", "--omega0", "1", "--omega1",
                         "1/2", "--c0sq", "1/100", "--c1sq", "1/100",
                         "--action", "0.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["outcome"] == "NecessaryConditionsSurvived"
        assert report["params"]["action_I"] == "0.1"

    def test_case3_short_period_exits_0(self, capsys):
        # the period 2.2e-20 at w1 = 1e40 is below a float's spacing at 0.01,
        # so a window [0.01, 0.01 + 1.05 period] could not hold it
        assert cli.main(["analyze", "case3", "--omega0", "1", "--omega1",
                         "1e40", "--c0sq", "1/100", "--c1sq", "1",
                         "--action", "3e20"]) == 0
        witness = json.loads(capsys.readouterr().out)["verdict"]["witness"]
        theta = 2 * math.sqrt(2e40)
        assert [z for z, _ in witness["data"]["zeros"]] == [
            math.pi / theta, 2 * (math.pi / theta)]

    @pytest.mark.parametrize("extra", [
        ["--action", "nan"], ["--action", "inf"], ["--action", "1e400"],
        ["--action", "3.0", "--t0-max", "inf"],
        ["--action", "3.0", "--t0-max", "1e300"],
        ["--action", "3.0", "--t0-min", "nan"],
        ["--action", "3.0", "--t0-min=-inf"]],
        ids=["action-nan", "action-inf", "action-1e400", "t0max-inf",
             "t0max-1e300", "t0min-nan", "t0min-minus-inf"])
    def test_unbounded_case3_input_is_usage_error(self, extra, capsys):
        # argparse rejects a non-rational --action by SystemExit(2); analyze
        # case3 takes no t0 window, so any --t0-min/--t0-max is refused too
        try:
            code = cli.main(["analyze", "case3", "--omega0", "1", "--omega1",
                             "1", "--c0sq", "1/100", "--c1sq", "1", *extra])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_case3_details_parse_as_floats(self, capsys):
        p = make_params(1, [1], Q(1, 100), [1], Q(1, 1000))
        v = verdict.classify(p, action_I=3.0)
        assert cli.main(["analyze", "case3", "--omega0", "1", "--omega1", "1",
                         "--c0sq", "1/100", "--c1sq", "1",
                         "--action", "3.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        for details in (v.details, report["details"]):
            reprs = [x for x in details.values() if isinstance(x, str)]
            assert "h_star" in details and len(reprs) >= 5
            for x in reprs:
                float(x)

    @pytest.mark.parametrize("argv", [
        ["series", "--what", "mu2", "--gbf", "1/3"],
        ["series", "--what", "mu3", "--gbf", "2"],
        ["analyze", "case3", "--omega0", "1e300", "--omega1", "1",
         "--c0sq", "1/100", "--c1sq", "1", "--action", "3"],
        ["analyze", "case3", "--omega0", "1", "--omega1", "1",
         "--c0sq", "1e400", "--c1sq", "1", "--action", "3"],
        ["sweep", "--omega0", "1e300", "--omega1", "1", "--c0sq", "1/100",
         "--c1sq", "1", "--action", "3"],
        ["analyze", "case2", "--gbf", "1", "--omega0", "1", "--omegaj", ",",
         "--c0sq", "1", "--h", "0"],
        ["verify", "--which", "prop2", "--omegaj", ",", "--cj", ","],
        ["verify", "--which", "prop1", "--omegaj", "1,2", "--cj", "1,1",
         "--hj", "1"],
        ["verify", "--which", "prop1", "--omegaj", "1", "--cj", "1",
         "--hj", "1,2"],
        ["analyze", "case1", "--omega0", "-1", "--omega", "2", "--gbf", "1",
         "--csum", "3"],
        ["analyze", "case1", "--omega0", "0", "--omega", "2", "--gbf", "0",
         "--csum", "3"],
        ["series", "--what", "mu2", "--gbf=-1/8", "--omegaj", "1"]],
        ids=["mu2-irrational-exponent", "mu3-irrational-exponent",
             "case3-omega0-overflow", "case3-c0sq-overflow",
             "sweep-omega0-overflow", "case2-no-mode", "verify-no-mode",
             "verify-hj-short", "verify-hj-long", "case1-omega0-negative",
             "case1-omega0-zero", "mu2-double-exponent"])
    def test_domain_error_is_usage_error(self, argv, capsys):
        # an exception escaping main is what prints a traceback
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_case3_commands_across_the_float_range(self, capsys):
        # w0 and C0^2 over 10^-300 ... 10^260 and 1, both signs of K: each
        # case-3 command answers or refuses with an error, and none raises;
        # verify, exact, answers exactly where K > 0
        values = ["1", *(f"1e{k}" for k in range(-300, 261, 35))]
        commands = [
            ["analyze", "case3", "--omega1", "1", "--c1sq", "1", "--action",
             "3"],
            ["verify", "--which", "separatrix"],
            ["sweep", "--omega1", "1", "--c1sq", "1", "--action", "3",
             "--t0-samples", "1"]]
        codes = set()
        for omega0 in values:
            for c0sq in values:
                for argv in commands:
                    code = cli.main([*argv, "--omega0", omega0,
                                     "--c0sq", c0sq])
                    err = capsys.readouterr().err
                    assert code == 0 or (code == 2 and "error:" in err), (
                        argv[0], omega0, c0sq, code, err)
                    if argv[0] == "verify":
                        K = model.separatrix_constant(Q(omega0), Q(c0sq))
                        assert code == (0 if K > 0 else 2), (omega0, c0sq)
                    codes.add((argv[0], code))
        assert codes == {(argv[0], code) for argv in commands
                         for code in (0, 2)}

    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--omega0", "1", "--omega1", "3e5", "--c0sq", "1/100",
          "--c1sq", "1", "--action", "1e6"], 0),
        (["sweep", "--omega0", "1", "--omega1", "1e300", "--c0sq", "1/100",
          "--c1sq", "1", "--action", "1e300"], 2)],
        ids=["sweep-large-omega1", "sweep-slope-underflow"])
    def test_float_failure_is_usage_error(self, argv, code, capsys):
        # each line once raised out of main: OverflowError in the contour
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error: ") and not captured.out
        else:
            rows = captured.out.splitlines()[1:]
            assert len(rows) == 65
            assert all(math.isfinite(float(x))
                       for row in rows for x in row.split(","))

    def test_sweep_at_large_omega1_is_the_sine_form(self, capsys):
        # theta r <= 2 keeps the rounding near eps e^2 |A|; with the radius
        # at 1/2 the sum at w1 = 1000 was off by up to 5.7 |A|
        assert cli.main(["sweep", "--omega0", "1", "--omega1", "1000",
                         "--c0sq", "1/100", "--c1sq", "1",
                         "--action", "2000"]) == 0
        s = melnikov.setup(1, 1000, Q(1, 100), 1, 2000)
        A = melnikov.predicted_amplitude(s)
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 65
        for row in rows:
            t0, re, im = map(float, row.split(",")[:3])
            assert abs(complex(re, im) - A * math.sin(s.theta * t0)) \
                <= 1e-12 * abs(A)

    def test_verify_prop2_reads_wp_series_once(self, monkeypatch, capsys):
        calls = []
        laurent = elliptic.wp_laurent

        def counted(e, order):
            calls.append(order)
            return laurent(e, order)
        monkeypatch.setattr(elliptic, "wp_laurent", counted)
        assert cli.main(["verify", "--which", "prop2"]) == 0
        assert calls == [2]
        assert json.loads(capsys.readouterr().out)["pass"]

    @pytest.mark.parametrize("command", [["analyze", "case3"],
                                         ["sweep", "--t0-samples=2"]],
                             ids=["analyze", "sweep"])
    def test_omega1_that_rounds_to_zero_is_usage_error(self, command, capsys):
        # 1e-400 is a positive rational but 0.0 as a float; setup once
        # divided by its square root.  A subnormal 1e-320 still runs
        def point(exponent):
            return [*command, "--omega0=1", f"--omega1=1e{exponent}",
                    "--c0sq=1/100", f"--c1sq=1e{exponent - 1}",
                    f"--action=1e{exponent}"]
        assert cli.main(point(-400)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: omega1 = 0.0 underflows a float\n"
        assert not captured.out
        assert cli.main(point(-320)) == 0

    @pytest.mark.parametrize("samples", ["0", "-5", str(cli.MAX_SAMPLES + 1)])
    def test_verify_sample_count_is_checked(self, samples, capsys,
                                            monkeypatch):
        # verify samples nothing now, so it takes no sample count at all
        def no_sampling(*args, **kwargs):
            raise AssertionError("verify started sampling")
        monkeypatch.setattr("random.Random", no_sampling)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--which", "prop1", f"--samples={samples}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --samples={samples}" in captured.err
        assert not captured.out


class TestOnePathPerCase:
    """``classify`` and the CLI reach each case through the same analysis
    function."""

    CASE3_ARGV = ["analyze", "case3", "--omega0", "1", "--omega1", "1",
                  "--c0sq", "1/100", "--c1sq", "1", "--action", "3.0"]

    @pytest.mark.parametrize("p, kwargs, argv", [
        (make_params(1, [2], 0, [3], 1), {},
         ["analyze", "case1", "--omega0", "1", "--omega", "2", "--gbf", "1",
          "--csum", "3"]),
        (make_params(1, [1], 0, [0], 1), {"h": -1},
         ["analyze", "case2", "--omega0", "1", "--gbf", "1", "--omegaj", "1",
          "--c0sq", "0", "--h", "-1"]),
        (make_params(1, [1], 1, [0], 0), {"h": 0},
         ["analyze", "case2", "--omega0", "1", "--gbf", "0", "--omegaj", "1",
          "--c0sq", "1", "--h", "0"]),
        (make_params(1, [1], Q(1, 100), [1], Q(1, 1000)),
         {"action_I": 3.0}, CASE3_ARGV)],
        ids=["case1", "case2_c0_zero", "case2_g0", "case3"])
    def test_classify_equals_cli_report(self, p, kwargs, argv, capsys):
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        want = cli._verdict_report(verdict.classify(p, **kwargs), "analyze", 0)
        del report["timing_seconds"], want["timing_seconds"]
        assert json.loads(json.dumps(want)) == report

    def test_case1_builds_one_reduction(self, monkeypatch, capsys):
        calls = []

        def counted(*args, _fn=heun.reduce_case1):
            calls.append(args)
            return _fn(*args)
        monkeypatch.setattr(heun, "reduce_case1", counted)
        verdict.classify(make_params(1, [2], 0, [3], 1))
        assert cli.main(["analyze", "case1", "--omega0", "1", "--omega", "2",
                         "--gbf", "1", "--csum", "3"]) == 0
        assert len(calls) == 2

    def test_cli_case3_makes_one_analysis_call(self, monkeypatch, capsys):
        calls = []

        def counted(*args, _fn=verdict.analyze_case3, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verdict, "analyze_case3", counted)
        assert cli.main(list(self.CASE3_ARGV)) == 0
        assert len(calls) == 1


class TestParser:
    ARGVS = (["analyze", "case2", "--gbf", "3", "--omega0", "1", "--omegaj",
              "2", "--c0sq", "1", "--h", "0"],
             ["analyze", "case3", "--omega0", "1", "--omega1", "1",
              "--c0sq", "1/100", "--c1sq", "1", "--action", "3.0"])

    def test_main_builds_the_parser_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in self.ARGVS:
            assert cli.main(list(argv)) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_reused_parser_gives_fresh_namespaces(self):
        fresh = cli.build_parser.__wrapped__()
        for argv in self.ARGVS:
            want = vars(fresh.parse_args(argv))
            for _ in range(2):
                assert vars(cli.build_parser().parse_args(argv)) == want

    def test_case3_t0_samples_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(self.ARGVS[1]) + ["--t0-samples", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--t0-min", "--t0-max"])
    def test_case3_t0_window_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(self.ARGVS[1]) + [flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", list(helpers_cli.CORPUS.values()),
                             ids=list(helpers_cli.CORPUS))
    def test_parse_equals_nested_parse(self, argv):
        assert helpers_cli.outcome(cli.parse_command_line, argv) \
            == helpers_cli.outcome(helpers_cli.nested_parse, argv)

    @pytest.mark.parametrize("argv", [
        helpers_cli.CORPUS["case1"], helpers_cli.CORPUS["case2"],
        helpers_cli.CORPUS["case3"], helpers_cli.CORPUS["verify"],
        ["series", "--what", "wp", "--order", "8"],
        ["sweep", "--omega0", "1", "--omega1", "1", "--c0sq", "1/100",
         "--c1sq", "1", "--action", "3", "--t0-samples", "2"]],
        ids=["case1", "case2", "case3", "verify", "series", "sweep"])
    def test_one_parse_per_command_line(self, argv, monkeypatch, capsys):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            counted)
        assert cli.main(list(argv)) == 0
        names = argv[:2] if argv[0] == "analyze" else argv[:1]
        assert calls == [" ".join(["bfmix", *names])]

    @pytest.mark.parametrize("flag", [["--order", "30"], ["--no-scan"]],
                             ids=["order", "no-scan"])
    def test_case2_order_and_scan_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(self.ARGVS[0]) + flag)
        assert exc.value.code == 2
