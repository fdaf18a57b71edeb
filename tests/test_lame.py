import random
from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers_theorem5 as oracle
from bfmix import elliptic, lame, variational, verdict
from bfmix.model import make_params
from conftest import first_curve, random_rational


class TestIndex:
    @pytest.mark.parametrize("g,expected", [
        (Q(1), Q(1)),
        (Q(3), Q(2)),
        (Q(3, 8), Q(1, 2)),
        (Q(35, 8), Q(5, 2)),
        (Q(0), Q(0)),
        (Q(1, 3), None),
        (Q(-1), None),
        (Q(-1, 9), Q(-1, 3)),
        (Q(-1, 8), Q(-1, 2)),
    ])
    def test_values(self, g, expected):
        assert lame.lame_index(g) == expected

    def test_roundtrip(self, rng):
        for _ in range(20):
            n = abs(random_rational(rng))
            g = n * (n + 1) / 2
            assert lame.lame_index(g) == n


class TestOffset:
    def test_integers_equal_the_fraction_formula(self):
        """B_j from integer numerators over one denominator equals
        (2/3) w0 n(n+1) - 2 w_j, on seeded points with numerators and
        denominators up to 10^30 and n >= -1/2 of both signs."""
        rng = random.Random(20261020)
        for _ in range(300):
            top = 10 ** rng.choice((1, 3, 12, 30))
            w0 = Q(rng.randint(1, top), rng.randint(1, top))
            wj = Q(rng.randint(1, top), rng.randint(1, top))
            n = Q(rng.randint(-top, 4 * top), 2 * top)
            want = Q(2, 3) * w0 * n * (n + 1) - 2 * wj
            got = lame.lame_offset(w0, wj, n)
            assert got == want and type(got) is Q

    def test_int_arguments(self):
        assert lame.lame_offset(1, 2, 2) == 0
        assert lame.lame_offset(3, 1, Q(1, 2)) == Q(-1, 2)


class TestPCoefficients:
    def test_reference_block(self):
        c = oracle.p_coefficients(1, 1, 1, 1)      # n = 1, B_j = -2/3
        assert (c.a1, c.b1, c.c1, c.c2, c.d1, c.d2) == \
            (Q(2), Q(4), Q(-8), Q(8), Q(-32), Q(16))
        assert c.a2 == 0 and c.b2 == 0

    def test_a2_b2_vanish(self, rng):
        for _ in range(10):
            w0 = abs(random_rational(rng, nonzero=True))
            wj = abs(random_rational(rng, nonzero=True))
            c = oracle.p_coefficients(w0, wj, abs(random_rational(rng)), Q(3))
            assert c.a2 == 0 and c.b2 == 0

    def test_zero_offset_reduction(self):
        # B_j = 0: b1 = 0 and d1 collapses to -n^2(n+1)^2 (4 C0^2 + 64 w0^3/27)
        w0, c0sq = Q(1), Q(5)
        c = oracle.p_coefficients(w0, 2 * w0, c0sq, Q(3))   # n = 2, B_j = 0
        assert c.b1 == 0
        assert c.d1 == -36 * (4 * c0sq + Q(64, 27))

    def test_oracle_agreement(self, rng):
        draws = 0
        while draws < 20:
            w0 = abs(random_rational(rng, nonzero=True))
            wj = abs(random_rational(rng, nonzero=True))
            c0sq = abs(random_rational(rng))
            n = rng.choice([Q(1), Q(2), Q(3), Q(1, 2), Q(3, 2), Q(5, 2), Q(7, 6)])
            g = n * (n + 1) / 2
            a = oracle.p_coefficients(w0, wj, c0sq, g)
            b = oracle.p_coefficients_from_invariants(w0, wj, c0sq, g)
            assert a == b
            draws += 1

    def test_case3_second_branch_identity(self, rng):
        # c2 b1 - 3 a1 d2 = -32 w0 n(n+1) identically
        for _ in range(20):
            w0 = abs(random_rational(rng, nonzero=True))
            wj = abs(random_rational(rng, nonzero=True))
            n = rng.choice([Q(1), Q(2), Q(1, 2), Q(5, 2), Q(7, 6)])
            c = oracle.p_coefficients(w0, wj, Q(1), n * (n + 1) / 2)
            assert c.c2 * c.b1 - 3 * c.a1 * c.d2 == -32 * w0 * n * (n + 1)
        c = oracle.p_coefficients(1, 1, 1, 1)
        assert c.c2 * c.b1 - 3 * c.a1 * c.d2 == -64

    def test_derivation_recovers_d2(self, rng):
        for _ in range(5):
            w0 = abs(random_rational(rng, nonzero=True))
            wj = abs(random_rational(rng, nonzero=True))
            n = Q(2)
            c = oracle.p_coefficients_from_invariants(w0, wj, Q(1), Q(3))
            assert c.d2 == 8 * n * (n + 1) * wj


class TestTheorem5:
    def test_integer_index_passes_case1(self):
        c = oracle.p_coefficients(1, 1, 1, 1)
        v = oracle.theorem5_check(c, 1)
        assert v.passed_case == "case1"
        assert not v.conjecture_conditional

    def test_case1_independent_of_h(self):
        # the integer-index test involves a1 only, which carries no h
        c = oracle.p_coefficients(1, 7, 99, 3)
        assert oracle.theorem5_check(c, 2).passed_case == "case1"

    def test_m1_passes_iff_quarter_frequency(self):
        good = oracle.p_coefficients(1, Q(1, 4), 1, Q(3, 8))
        v = oracle.theorem5_check(good, Q(1, 2))
        assert v.passed_case == "case2_1"
        assert v.conjecture_conditional
        assert v.derived_constraints["omega_j/omega0"] == Q(1, 4)
        bad = oracle.p_coefficients(1, 1, 1, Q(3, 8))
        v = oracle.theorem5_check(bad, Q(1, 2))
        assert v.passed_case == "none"
        assert any("b1" in cid for cid, _ in v.failed_conditions)

    def test_m2_never_occurs(self):
        c = oracle.p_coefficients(1, 2, 1, Q(15, 8))    # n = 3/2, m = 2
        v = oracle.theorem5_check(c, Q(3, 2))
        assert v.passed_case == "none"
        assert any("c2" in cid for cid, _ in v.failed_conditions)

    def test_m3_constraint_triple(self):
        w0 = Q(1)
        wj = Q(55, 28) * w0
        c0sq = Q(72, 343) * w0 ** 3
        good = oracle.p_coefficients(w0, wj, c0sq, Q(35, 8))
        v = oracle.theorem5_check(good, Q(5, 2))
        assert v.passed_case == "case2_3"
        # violating any one relation fails the branch
        for bad_wj, bad_c0 in ((wj + 1, c0sq), (wj, c0sq + 1)):
            c = oracle.p_coefficients(w0, bad_wj, bad_c0, Q(35, 8))
            v = oracle.theorem5_check(c, Q(5, 2))
            assert v.passed_case == "none"

    def test_m3_offset_relation(self):
        # 16 a1 d2 + 11 b1 c2 = 0 is exactly B_j = (32/33) omega_j
        w0 = Q(28)
        wj = Q(55)
        c = oracle.p_coefficients(w0, wj, 1, Q(35, 8))
        bj = lame.lame_offset(w0, wj, Q(5, 2))
        assert bj == Q(32, 33) * wj
        assert 16 * c.a1 * c.d2 + 11 * c.b1 * c.c2 == 0

    def test_m_above_three_never_occurs(self):
        for n, m in ((Q(7, 2), 4), (Q(9, 2), 5), (Q(13, 2), 7), (Q(11, 2), 6)):
            c = oracle.p_coefficients(1, 1, 1, n * (n + 1) / 2)
            v = oracle.theorem5_check(c, n)
            assert v.passed_case == "none", f"m={m}"

    def test_m6_zero_offset_defers_to_variational_chain(self):
        # m = 6 = 0 mod 6: no clause constrains c1, c2, d1, d2, so b1 = 0
        # passes the block with a note; the VE1 resonance then decides
        n = Q(11, 2)
        c = oracle.p_coefficients(1, Q(143, 12), 1, n * (n + 1) / 2)
        assert c.b1 == 0
        v = oracle.theorem5_check(c, n)
        assert v.passed_case == "case2_m"
        assert not v.failed_conditions
        assert any("0 mod 6" in note for note in v.notes)

    def test_baldassarri_always_fails_on_model(self, rng):
        n = Q(7, 6)      # n + 1/2 = 5/3 in the one-third lattice
        for _ in range(10):
            w0 = abs(random_rational(rng, nonzero=True))
            wj = abs(random_rational(rng, nonzero=True))
            c = oracle.p_coefficients(w0, wj, abs(random_rational(rng)),
                                    n * (n + 1) / 2)
            v = oracle.theorem5_check(c, n)
            assert v.passed_case == "none"
            branch_b = [r for cid, r in v.failed_conditions
                        if cid.startswith("case3 branch b: c2 b1")]
            assert branch_b and branch_b[0] == -32 * w0 * n * (n + 1)

    def test_a2_precondition(self):
        c = oracle.PCoefficients(Q(1), Q(1), 0, 0, 0, 0, 0, 0)
        v = oracle.theorem5_check(c, 1)
        assert v.passed_case == "none"
        assert v.failed_conditions[0][0] == "a2 = 0"

    def test_unclassifiable_index(self):
        n = Q(1, 3)       # n + 1/2 = 5/6: in none of the families
        c = oracle.p_coefficients(1, 1, 1, n * (n + 1) / 2)
        v = oracle.theorem5_check(c, n)
        assert v.passed_case == "none"
        assert v.notes


class TestLameData:
    def test_per_block_offsets(self):
        p = make_params(1, [1, 2], 1, [0, 0], 1)
        data = oracle.lame_data(p)
        assert data.n == 1
        assert data.B_j == (Q(-2, 3), Q(-8, 3))
        assert len(data.coeffs) == 2

    def test_rejects_non_lame_coupling(self):
        p = make_params(1, [1], 1, [0], Q(1, 3))
        with pytest.raises(ValueError):
            oracle.lame_data(p)


class TestResonanceRule:
    def test_m6_zero_offset_fails_at_users_energy(self):
        # the block the tree passes with no clause has a nonzero exact VE1
        # log coefficient at h = 0
        n = Q(11, 2)
        p = make_params(1, [Q(143, 12)], 1, [0], n * (n + 1) / 2)
        (v,) = lame.theorem5_check(p, first_curve(1, 1, 0), n)
        assert v.passed_case == "none"
        assert v.failed_conditions == (
            ("m=6, normal_1, h = 0: resonance coefficient = 0",
             Q(-8863855, 6718464)),)
        assert not v.notes

    def test_degenerate_energies_are_skipped(self):
        # w0 = 1, C0^2 = 0: the curve degenerates at h = 0 and h = 1
        for h in (0, 1):
            with pytest.raises(elliptic.DegenerateInvariantsError):
                elliptic.invariants_from_energy(1, 0, h)
        p = make_params(1, [1], 0, [0], Q(15, 8))      # n = 3/2
        e = elliptic.invariants_from_energy(1, 0, -1)
        assert [c.h for c in lame._curves(p, e, 3)] == [-1, 2, 3]

    def test_blocks_report_their_own_first_failing_energy(self):
        # block 2's coefficient, linear in h, vanishes at h = 7/12
        n = Q(3, 2)
        p = make_params(1, [1, 2], 1, [0, 0], n * (n + 1) / 2)
        e = elliptic.invariants_from_energy(1, 1, Q(7, 12))
        assert variational.resonance_coefficients(p, e, n) == (Q(1, 2), 0)
        v1, v2 = lame.theorem5_check(p, e, n)
        assert v1.failed_conditions == (
            ("m=2, normal_1, h = 7/12: resonance coefficient = 0", Q(1, 2)),)
        assert v2.failed_conditions == (
            ("m=2, normal_2, h = 19/12: resonance coefficient = 0",
             Q(-3, 4)),)
        v = verdict.analyze_case2(p, Q(7, 12))
        assert v.witness.data == {"block": 1, "failed_conditions": [
            ["m=2, normal_1, h = 7/12: resonance coefficient = 0", "1/2"]]}
        assert [t["failed_conditions"] for t in v.details["theorem5"]] == [
            [["m=2, normal_1, h = 7/12: resonance coefficient = 0", "1/2"]],
            [["m=2, normal_2, h = 19/12: resonance coefficient = 0",
              "-3/4"]]]

    def test_zero_index_is_refused(self):
        # g_bf = 0 decouples the blocks; n + 1/2 = 1/2 is no Baldassarri index
        p = make_params(1, [1], 1, [0], 0)
        with pytest.raises(ValueError, match=r"^n = 0 \(g_bf = 0\)"):
            lame.theorem5_check(p, first_curve(1, 1, 0), Q(0))
        assert not any(lame._is_baldassarri_index(Q(k)) for k in range(-3, 4))

    def test_integer_index_passes_without_coefficients(self):
        (v,) = lame.theorem5_check(make_params(1, [7], 9801, [0], 3),
                                   first_curve(1, 9801, 0), Q(2))
        assert v.passed_case == "case1" and not v.conjecture_conditional


class TestOnePassPerPoint:
    """analyze_case2 checks Theorem 5 once for all blocks, on the curve it
    built at the user's h, and builds one q0^2 per energy it tries."""

    @pytest.mark.parametrize("wjs, c0sq, g, h, energies", [
        ([1], 1, Q(15, 8), Q(7, 12), [Q(7, 12)]),
        ([1, 2], 1, Q(15, 8), Q(7, 12), [Q(7, 12), Q(19, 12)]),
        ([Q(55, 28)], Q(72, 343), Q(35, 8), 0, [0, 1]),     # m = 3 triple
        ([Q(55, 28)] * 2, Q(72, 343), Q(35, 8), 0, [0, 1]),
        ([7, 2], 1, 3, 0, [])],                              # n = 2
        ids=["fail-nf1", "fail-nf2", "triple-nf1", "triple-nf2", "integer"])
    def test_counts(self, monkeypatch, wjs, c0sq, g, h, energies):
        checks, curves, squares = [], [], []
        check = lame.theorem5_check
        curve = elliptic.invariants_from_energy
        square = variational._qbar0_squared

        def spy_check(*args):
            out = check(*args)
            checks.append(len(squares))
            return out

        def spy_curve(w0, c0sq, h):
            curves.append(Q(h))
            return curve(w0, c0sq, h)

        def spy_square(e, order):
            squares.append(e.h)
            return square(e, order)

        monkeypatch.setattr(lame, "theorem5_check", spy_check)
        monkeypatch.setattr(elliptic, "invariants_from_energy", spy_curve)
        monkeypatch.setattr(variational, "_qbar0_squared", spy_square)
        verdict.analyze_case2(
            make_params(1, wjs, c0sq, [0] * len(wjs), g), h)
        (built,) = checks
        assert curves == [Q(h), *energies[1:]]
        assert squares[:built] == energies


#: half-integer indices m = n + 1/2 in 1..9 that the tree has clauses for
TREE_MS = (1, 2, 3, 4, 5, 7, 8, 9)


@st.composite
def half_integer_points(draw):
    """(p, n, h) with two blocks; block 2 (j = 1) is random, has B_j = 0
    (for m = 1 the surviving family), or is the m = 3 surviving triple."""
    m = draw(st.sampled_from(TREE_MS))
    n = Q(2 * m - 1, 2)
    pos = st.fractions(min_value=Q(1, 8), max_value=4, max_denominator=8)
    nonneg = st.fractions(min_value=0, max_value=4, max_denominator=8)
    w0 = draw(pos)
    kind = draw(st.sampled_from(("random", "zero_offset", "triple")
                                if m == 3 else ("random", "zero_offset")))
    if kind == "random":
        wj, c0sq = draw(pos), draw(nonneg)
    elif kind == "zero_offset":
        wj, c0sq = w0 * n * (n + 1) / 3, draw(nonneg)
    else:
        wj, c0sq = Q(55, 28) * w0, Q(72, 343) * w0 ** 3
    h = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
    p = make_params(w0, [draw(pos), wj], c0sq, [0, 0], n * (n + 1) / 2)
    return p, n, h


@given(half_integer_points())
@settings(max_examples=200, deadline=None)
def test_resonance_rule_agrees_with_tree(point):
    p, n, h = point
    m = int(n + Q(1, 2))
    want = oracle.theorem5_check(
        oracle.p_coefficients(p.omega0, p.omegas[1], p.C0_sq, p.g_bf), n)
    got = lame.theorem5_check(p, first_curve(p.omega0, p.C0_sq, h), n)[1]
    assert got.passed_case == want.passed_case
    assert got.conjecture_conditional and not got.notes
    if not got.passed:
        ((cid, value),) = got.failed_conditions
        assert cid.startswith(f"m={m}, normal_2, h = ")
        assert value != 0


@given(half_integer_points(),
       st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.fractions(min_value=Q(1, 6), max_value=2, max_denominator=6))
@settings(max_examples=100, deadline=None)
def test_resonance_coefficient_degree_bound(point, h0, dh):
    """The coefficient is a polynomial of degree at most floor(m/2) in h:
    its (floor(m/2) + 1)-th finite difference vanishes."""
    p, n, _ = point
    k = int(n + Q(1, 2)) // 2 + 1
    values = []
    for i in range(k + 1):
        try:
            e = elliptic.invariants_from_energy(p.omega0, p.C0_sq, h0 + i * dh)
        except elliptic.DegenerateInvariantsError:
            assume(False)
        values.append(variational.resonance_coefficients(p, e, n)[1])
    assert sum((-1) ** i * comb(k, i) * v for i, v in enumerate(values)) == 0


#: Baldassarri-type indices: n + 1/2 in the lattice 1/3, 1/4 or 1/5, not an
#: integer; the negative ones are attractive couplings, with n(n+1) < 0
FRACTIONAL_INDICES = (Q(1, 6), Q(5, 6), Q(7, 6), Q(13, 6), Q(1, 4), Q(3, 4),
                      Q(5, 4), Q(1, 10), Q(3, 10), Q(7, 10), Q(-1, 6),
                      Q(-1, 4), Q(-1, 10), Q(-3, 10))


@given(st.sampled_from(FRACTIONAL_INDICES),
       st.fractions(min_value=Q(1, 8), max_value=4, max_denominator=8),
       st.fractions(min_value=Q(1, 8), max_value=4, max_denominator=8),
       st.fractions(min_value=0, max_value=4, max_denominator=8),
       st.fractions(min_value=-4, max_value=4, max_denominator=6))
@settings(max_examples=100, deadline=None)
def test_fractional_rows_equal_tree_rows(n, w0, wj, c0sq, h):
    """The closed-form fractional rows are the tree's rows on P derived from
    the invariants, at any energy."""
    g = n * (n + 1) / 2
    (got,) = lame.theorem5_check(make_params(w0, [wj], c0sq, [0], g),
                                 first_curve(w0, c0sq, h), n)
    want = oracle.theorem5_check(
        oracle.p_coefficients_from_invariants(w0, wj, c0sq, g), n)
    assert got.passed_case == want.passed_case == "none"
    assert list(got.failed_conditions) == want.failed_conditions
    assert len(got.failed_conditions) == 4
    assert not got.notes and not got.conjecture_conditional
