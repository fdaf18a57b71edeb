import cmath
import math
import random
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfmix import elliptic, lame, variational as V
from bfmix.model import make_params
from bfmix.series import (FieldExtensionError, InsufficientOrderError,
                          PuiseuxSeries, append_rational, rational_sqrt)
from conftest import random_rational, random_series, ve3_row1
from helpers_eps import forcing_oracle
from helpers_series import agrees_with, differentiate, evaluate
from helpers_monodromy import monodromy_rows

#: largest distance allowed between a monodromy-oracle reading and the exact
#: value
ORACLE_TOL = 1e-3

E_REF = elliptic.invariants_from_energy(1, 1, 0)
P_N1 = make_params(1, [1], 1, [0], 1)


def is_unit_wronskian(basis):
    """sol1*sol2' - sol1'*sol2 is the constant series 1 below its
    truncation."""
    s1, s2 = basis.sol1, basis.sol2
    w = s1 * differentiate(s2) - differentiate(s1) * s2
    return (w.coefficient(0) == 1
            and all(c == 0 for e, c in w.terms() if e != 0))


def series_residual(xi, q, forcing=None):
    r = differentiate(differentiate(xi)) - q * xi
    if forcing is not None:
        r = r - forcing
    return [(e, c) for e, c in r.terms() if c != 0]


class TestFrobenius:
    def test_euler_equation(self):
        q = PuiseuxSeries({-2: 2}, 10)
        basis = V.frobenius(q)
        assert basis.exponents == (2, -1)
        assert basis.sol1.base_exponent == -1
        assert basis.sol1.coefficient(-1) == 1
        assert basis.sol2.coefficient(2) == Q(1, 3)
        assert is_unit_wronskian(basis)

    def test_tangential_solutions(self):
        ve1 = V.build_ve1(P_N1, E_REF, 16)
        b = V.frobenius(ve1.tangential)
        assert b.exponents == (3, -2)
        # singular solution 1/t^2 - w0/3 - (3 g2/40 - w0^2/6) t^2 + ...
        assert b.sol1.coefficient(-2) == 1
        assert b.sol1.coefficient(0) == Q(-1, 3)
        assert b.sol1.coefficient(2) == -(3 * E_REF.g2 / 40 - Q(1, 6))
        # regular solution t^3/5 + (w0/35) t^5 + ...
        assert b.sol2.coefficient(3) == Q(1, 5)
        assert b.sol2.coefficient(5) == Q(1, 35)

    def test_lame_n1_solutions(self):
        ve1 = V.build_ve1(P_N1, E_REF, 16)
        b = V.frobenius(ve1.normal[0])
        bj = Q(2, 3) * 1 * 2 - 2 * 1          # canonical offset, here -2/3
        assert b.exponents == (2, -1)
        assert b.sol1.coefficient(-1) == 1
        # printed form carries the opposite offset sign: coefficient is -B/2
        assert b.sol1.coefficient(1) == -bj / 2
        assert b.sol1.coefficient(3) == E_REF.g2 / 40 - bj ** 2 / 8
        assert b.sol2.coefficient(2) == Q(1, 3)

    def test_lame_half_integer_ramification(self):
        p = make_params(1, [Q(55, 28)], 1, [0], Q(35, 8))
        e = elliptic.invariants_from_energy(1, Q(72, 343), 0)
        ve1 = V.build_ve1(p, e, 16)
        b = V.frobenius(ve1.normal[0])
        assert b.exponents == (Q(7, 2), Q(-5, 2))
        assert b.sol2.base_exponent == Q(7, 2)
        assert b.sol2.coefficient(Q(7, 2)) == Q(1, 6)

    def test_bases_satisfy_equation(self, rng):
        for _ in range(5):
            w0 = abs(random_rational(rng, nonzero=True))
            wj = abs(random_rational(rng, nonzero=True))
            c0sq = abs(random_rational(rng, nonzero=True))
            h = random_rational(rng)
            try:
                e = elliptic.invariants_from_energy(w0, c0sq, h)
            except elliptic.DegenerateInvariantsError:
                continue
            p = make_params(w0, [wj], c0sq, [0], 1)
            ve1 = V.build_ve1(p, e, 18)
            for q in (ve1.tangential,) + ve1.normal:
                b = V.frobenius(q)
                assert is_unit_wronskian(b)
                assert not series_residual(b.sol1, q)
                assert not series_residual(b.sol2, q)

    def test_irregular_singularity_rejected(self):
        with pytest.raises(V.IrregularSingularityError):
            V.frobenius(PuiseuxSeries({-3: 1}, 5))

    def test_untruncated_coefficient_rejected(self):
        with pytest.raises(ValueError):
            V.frobenius(PuiseuxSeries({-2: 2}))

    def test_resonance_beyond_truncation_raises(self):
        # exponents (2, -1): the resonant a_3 of sol1 needs q up to t^1
        with pytest.raises(InsufficientOrderError):
            V.frobenius(PuiseuxSeries({-2: 2}, 1))
        basis = V.frobenius(PuiseuxSeries({-2: 2}, 2))
        assert basis.sol1.truncation_order == 3
        assert basis.sol2.truncation_order == 6

    def test_indicial_roots_equal_the_fraction_formula(self):
        """(1 +- sqrt(1 + 4 c2)) / 2 from integer square roots: the
        exponents, and the FieldExtensionError messages for complex and
        irrational ones, are those of the Fraction formula, for c2 given in
        lowest terms or not."""
        rng = random.Random(20261020)
        kinds = set()
        for i in range(400):
            top = 10 ** rng.choice((1, 3, 12, 30))
            if i % 2:
                rho = Q(rng.randint(-top, top), rng.randint(1, top))
                c2 = rho * (rho - 1)
            else:
                c2 = Q(rng.randint(-top, top), rng.randint(1, top))
            disc = 1 + 4 * c2
            root = rational_sqrt(disc) if disc >= 0 else None
            for k in (1, rng.randint(2, 10 ** 6)):
                args = (c2.numerator * k, c2.denominator * k)
                if disc < 0:
                    kinds.add("complex")
                    message = f"complex indicial exponents (1+4c = {disc})"
                elif root is None:
                    kinds.add("irrational")
                    message = f"irrational indicial exponents (1+4c = {disc})"
                else:
                    kinds.add("rational")
                    assert V._indicial_roots(*args) == ((1 + root) / 2,
                                                        (1 - root) / 2)
                    continue
                with pytest.raises(FieldExtensionError) as exc:
                    V._indicial_roots(*args)
                assert str(exc.value) == message
        assert kinds == {"complex", "irrational", "rational"}

    def test_resonant_log_flag(self):
        # half-integer index with nonzero offset forces a logarithm at the
        # resonant exponent of the singular solution
        p = make_params(1, [1], 1, [0], Q(3, 8))
        ve1 = V.build_ve1(p, E_REF, 16)
        with pytest.raises(V.FirstOrderLogError,
                           match="logarithm already at first order") as exc:
            V.frobenius(ve1.normal[0])
        # n = 1/2: the resonant right-hand side at t^(3/2) is a_0 q_2 = B_j
        assert exc.value.coefficient == Q(2, 3) * Q(3, 4) - 2


def frobenius_one_oracle(q, rho, other, step):
    """The Frobenius recursion on Fraction exponents that the integer-lattice
    one in ``variational`` replaced: (monic solution at rho, whether the
    resonance at ``other`` forces a logarithm).  The solution is rebuilt
    through the dict constructor, not through ``from_dense``."""
    c2 = q.coefficient(Q(-2))
    exps = dict(q.terms())
    q_den = math.lcm(*(c.denominator for c in exps.values()))
    qs = [0]
    a = [1]
    a_den = 1
    log_needed = False
    k = 1
    while k * step - 2 < q.truncation_order:
        e = rho + k * step
        c = exps.get(k * step - 2, 0)
        qs.append(c.numerator * (q_den // c.denominator) if c else 0)
        rhs = sum(map(mul, a, qs[k:0:-1]))
        if e == other:
            # resonance: coefficient multiplies zero; solvable only if rhs = 0
            if rhs != 0:
                log_needed = True
            a.append(0)
        else:
            bracket = e * (e - 1) - c2
            a_den = append_rational(a, a_den, rhs * bracket.denominator,
                                    a_den * q_den * bracket.numerator)
        k += 1
    trunc = rho + k * step
    if trunc <= other and ((other - rho) / step).denominator == 1:
        raise InsufficientOrderError(
            f"resonance at t^{other} lies beyond the exact terms (below "
            f"t^{trunc}) of the solution at t^{rho}")
    sol = PuiseuxSeries({rho + j * step: Q(x, a_den) for j, x in enumerate(a)},
                        trunc)
    return sol, log_needed


#: (L, rho2) pairs: q on the lattice 1/L with indicial exponents rho2 and
#: 1 - rho2; integer, half-integer and third-integer exponents
FROBENIUS_LATTICES = [(1, Q(-1)), (1, Q(-2)), (2, Q(-1)), (2, Q(-1, 2)),
                      (1, Q(-3, 2)), (2, Q(-5, 2)), (3, Q(-1, 3)),
                      (3, Q(-2)), (3, Q(-4, 3))]


@st.composite
def frobenius_inputs(draw):
    """A truncated q = c2/t^2 + sum_j q_j t^(j/L - 2) with rational
    exponents rho2 < rho1 = 1 - rho2 and often sparse terms."""
    L, rho2 = draw(st.sampled_from(FROBENIUS_LATTICES))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    density = draw(st.sampled_from((0.0, 0.3, 1.0)))
    n = draw(st.integers(0, 14))
    terms = {Q(-2): rho2 * (rho2 - 1)}
    for j in range(1, n):
        if draw(st.floats(0, 1)) < density:
            terms[Q(j, L) - 2] = draw(small)
    return PuiseuxSeries(terms, Q(n, L) - 2), rho2


def resonance_value(sol, q, other):
    """sum_{m<K} a_m q_{K-m} at the resonant exponent ``other``: the
    coefficient of t^(other - 2) in q * sol without the t^-2 term of q."""
    return sum((c * q.coefficient(other - 2 - e)
                for e, c in sol.terms() if e < other), Q(0))


@given(frobenius_inputs())
@settings(max_examples=300, deadline=None)
def test_integer_recursion_matches_fraction_oracle(inputs):
    q, rho2 = inputs
    rho1 = 1 - rho2
    step = Q(1, q.dense()[0])
    for rho, other in ((rho2, rho1), (rho1, rho2)):
        try:
            want = frobenius_one_oracle(q, rho, other, step)
        except InsufficientOrderError:
            with pytest.raises(InsufficientOrderError):
                V._frobenius_one(q, rho, other)
            continue
        sol, log_coefficient = V._frobenius_one(q, rho, other)
        assert sol == want[0]
        assert sol.dense() == want[0].dense()
        assert (log_coefficient != 0) == want[1]
        if rho == rho2 and ((rho1 - rho2) / step).denominator == 1:
            assert log_coefficient == resonance_value(sol, q, other)
        else:
            assert log_coefficient == 0


#: (g_bf, w_j, C0^2) of the index-1 and index-2 references and the index-1/2
#: and 5/2 survivors, all at w0 = 1, h = 0
REFERENCES = {"index1": (Q(1), Q(1), Q(1)), "index2": (Q(3), Q(2), Q(1)),
              "half": (Q(3, 8), Q(1, 4), Q(1)),
              "five_half": (Q(35, 8), Q(55, 28), Q(72, 343))}


def reference_bases(name, order):
    g, wj, c0sq = REFERENCES[name]
    p = make_params(1, [wj], c0sq, [0], g)
    ve1 = V.build_ve1(p, elliptic.invariants_from_energy(1, c0sq, 0),
                      order=order)
    return [V.frobenius(q) for q in (ve1.tangential,) + ve1.normal]


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_bases_agree_with_order_60(name):
    """Every coefficient a basis claims is exact: at each order 6-30 the
    tangential and normal sol1/sol2 agree with the order-60 bases."""
    deep = reference_bases(name, 60)
    for order in range(6, 31):
        for basis, ref in zip(reference_bases(name, order), deep):
            assert agrees_with(basis.sol1, ref.sol1), (order, "sol1")
            assert agrees_with(basis.sol2, ref.sol2), (order, "sol2")


@pytest.mark.parametrize("g, wjs, c0sq, h", [
    (Q(3, 8), [Q(1, 4)], Q(1), Q(0)),                 # m = 1 survivor
    (Q(3, 8), [Q(1), Q(1, 4)], Q(1), Q(2, 3)),        # m = 1, two blocks
    (Q(15, 8), [Q(1)], Q(1), Q(-1, 2)),               # m = 2
    (Q(35, 8), [Q(55, 28)], Q(72, 343), Q(3)),        # m = 3 triple
    (Q(63, 8), [Q(5, 3)], Q(2), Q(1, 5)),             # m = 4
    (Q(143, 8), [Q(143, 12)], Q(1), Q(0))],           # m = 6, B_j = 0
    ids=["half", "half-nf2", "three-half", "five-half", "seven-half",
         "eleven-half"])
def test_resonance_coefficient_is_the_basis_log_coefficient(g, wjs, c0sq, h):
    """The short route reads the same number as the full VE1 basis: the
    coefficient ``frobenius`` raises with, or 0 where it builds a basis."""
    n = lame.lame_index(g)
    p = make_params(1, wjs, c0sq, [0] * len(wjs), g)
    e = elliptic.invariants_from_energy(1, c0sq, h)
    ve1 = V.build_ve1(p, e, 2 * n + 3)
    for q, r in zip(ve1.normal, V.resonance_coefficients(p, e, n),
                    strict=True):
        try:
            V.frobenius(q)
        except V.FirstOrderLogError as exc:
            assert exc.coefficient == r != 0
        else:
            assert r == 0


class TestVE1Structure:
    def test_tangential_leading_terms(self):
        ve1 = V.build_ve1(P_N1, E_REF, 12)
        assert ve1.tangential.coefficient(-2) == 6
        assert ve1.tangential.coefficient(0) == 2          # 2 w0
        # centrifugal part enters at t^4, poles stop at t^-2
        assert ve1.tangential.base_exponent == -2

    def test_normal_is_lame_form(self):
        ve1 = V.build_ve1(P_N1, E_REF, 12)
        wp = elliptic.wp_laurent(E_REF, 12)
        bj = Q(4, 3) - 2
        target = wp.scale(2) + PuiseuxSeries.constant(bj)
        assert agrees_with(ve1.normal[0], target)

    def test_gbf_zero_decouples(self):
        p = make_params(1, [Q(5, 4)], 1, [0], 0)
        ve1 = V.build_ve1(p, E_REF, 10)
        assert ve1.normal[0] == PuiseuxSeries.constant(Q(-5, 2)).truncate(10)

    def test_tangential_singular_solution_is_orbit_derivative(self):
        ve1 = V.build_ve1(P_N1, E_REF, 16)
        b = V.frobenius(ve1.tangential)
        minus_pbar = -differentiate(ve1.qbar0)
        assert agrees_with(b.sol1, minus_pbar)


class TestForcingOracle:
    def test_hand_coded_equals_expansion(self, rng):
        draws = 0
        while draws < 20:
            w0 = abs(random_rational(rng, nonzero=True))
            wjs = [abs(random_rational(rng, nonzero=True))
                   for _ in range(rng.choice([1, 2]))]
            c0sq = abs(random_rational(rng))
            g = random_rational(rng, nonzero=True)
            try:
                e = elliptic.invariants_from_energy(w0, c0sq, Q(0))
            except elliptic.DegenerateInvariantsError:
                continue
            qbar = V.qbar0_series(e, 14)
            xi0_1 = random_series(rng, lo=-2, hi=3, trunc=6)
            xij_1 = [random_series(rng, lo=-2, hi=3, trunc=6) for _ in wjs]
            xi0_2 = random_series(rng, lo=-2, hi=3, trunc=6)
            xij_2 = [random_series(rng, lo=-2, hi=3, trunc=6) for _ in wjs]
            if not xi0_1 or not all(xij_1):
                continue
            orbit = V.OrbitFactors.of(qbar, g, c0sq)
            k0_2, kj_2 = V.forcing_k2(orbit, xi0_1, xij_1)
            k0_3, kj_3 = V.forcing_k3(orbit, xi0_1, xij_1, xi0_2, xij_2)
            o0_2, oj_2, o0_3, oj_3 = forcing_oracle(
                qbar, w0, wjs, c0sq, g, xi0_1, xij_1, xi0_2, xij_2)
            assert agrees_with(k0_2, o0_2)
            assert agrees_with(k0_3, o0_3)
            for a, b in zip(kj_2, oj_2):
                assert agrees_with(a, b)
            for a, b in zip(kj_3, oj_3):
                assert agrees_with(a, b)
            draws += 1

    def test_taylor_forcings_equal_expansion(self, rng):
        """The oracle comparison with one to three transverse modes and
        every third draw at C0^2 = 0 exactly, where c3 has no q0^-6 part."""
        draws, modes = [], set()
        while len(draws) < 30:
            zero = len(draws) % 3 == 0
            w0 = abs(random_rational(rng, nonzero=True))
            wjs = [abs(random_rational(rng, nonzero=True))
                   for _ in range(rng.choice([1, 2, 3]))]
            c0sq = Q(0) if zero else abs(random_rational(rng, nonzero=True))
            g = random_rational(rng, nonzero=True)
            try:
                e = elliptic.invariants_from_energy(w0, c0sq,
                                                    random_rational(rng))
            except elliptic.DegenerateInvariantsError:
                continue
            qbar = V.qbar0_series(e, 14)
            xi0_1, xi0_2, *xij = [random_series(rng, lo=-2, hi=3, trunc=6)
                                  for _ in range(2 + 2 * len(wjs))]
            xij_1, xij_2 = xij[::2], xij[1::2]
            if not xi0_1 or not all(xij_1):
                continue
            orbit = V.OrbitFactors.of(qbar, g, c0sq)
            assert (orbit.c3 is None) == zero
            k0_2, kj_2 = V.forcing_k2(orbit, xi0_1, xij_1)
            k0_3, kj_3 = V.forcing_k3(orbit, xi0_1, xij_1, xi0_2, xij_2)
            o0_2, oj_2, o0_3, oj_3 = forcing_oracle(
                qbar, w0, wjs, c0sq, g, xi0_1, xij_1, xi0_2, xij_2)
            assert len(kj_2) == len(kj_3) == len(wjs)
            for a, b in zip((k0_2, k0_3, *kj_2, *kj_3),
                            (o0_2, o0_3, *oj_2, *oj_3)):
                assert agrees_with(a, b)
            draws.append(zero)
            modes.add(len(wjs))
        assert draws.count(True) == 10 and modes == {1, 2, 3}

    def test_gbf_zero_kills_normal_forcing(self):
        qbar = V.qbar0_series(E_REF, 10)
        x = PuiseuxSeries({-1: 1}, 5)
        _, kj = V.forcing_k2(V.OrbitFactors.of(qbar, 0, 1), x, [x])
        assert not kj[0]


class TestVariationOfConstants:
    def test_zero_forcing(self):
        ve1 = V.build_ve1(P_N1, E_REF, 14)
        b = V.frobenius(ve1.tangential)
        voc = V.variation_of_constants(b, PuiseuxSeries({}, 8))
        assert not voc.particular
        assert voc.log_coefficients == (0, 0)

    def test_particular_solves_equation(self):
        ve1 = V.build_ve1(P_N1, E_REF, 24)
        tb = V.frobenius(ve1.tangential)
        nb = V.frobenius(ve1.normal[0])
        k0, kj = V.forcing_k2(V.OrbitFactors.of(ve1.qbar0, 1, 1), tb.sol2,
                              [nb.sol1])
        voc0 = V.variation_of_constants(tb, k0)
        vocj = V.variation_of_constants(nb, kj[0])
        assert not series_residual(voc0.particular, ve1.tangential, k0)
        assert not series_residual(vocj.particular, ve1.normal[0], kj[0])

    def test_forced_particular_leading_terms(self):
        # second-order tangential particular: -(g Nf)/(2 t) + ...
        ve1 = V.build_ve1(P_N1, E_REF, 24)
        tb = V.frobenius(ve1.tangential)
        nb = V.frobenius(ve1.normal[0])
        k0, _ = V.forcing_k2(V.OrbitFactors.of(ve1.qbar0, 1, 1), tb.sol2,
                             [nb.sol1])
        voc0 = V.variation_of_constants(tb, k0)
        assert voc0.particular.coefficient(-1) == Q(-1, 2)


def run_residues(n, w0, wj, c0sq, h, n_f=1, order=30, choice=None):
    g = Q(n) * (Q(n) + 1) / 2
    p = make_params(w0, [wj] * n_f, c0sq, [0] * n_f, g)
    e = elliptic.invariants_from_energy(w0, c0sq, h)
    ch = choice or V.STANDARD_CHOICES.get(Q(n), V.HigherVEChoice())
    return V.higher_ve_residues(V.ve1_context(p, e, order), ch)


class TestHigherVEResidues:
    """Frozen values from the exact pipeline, cross-validated by the
    epsilon-expansion oracle and the float contour integral below."""

    def test_index_one_reference(self):
        res = run_residues(1, Q(1), Q(1), Q(1), Q(0))
        assert not res.ve2_has_log
        assert ve3_row1(res) == (Q(2, 3),)

    def test_index_one_two_blocks(self):
        res = run_residues(1, Q(1), Q(1), Q(1), Q(0), n_f=2)
        assert ve3_row1(res) == (Q(4, 3), Q(4, 3))

    def test_index_one_parameter_independence(self):
        res = run_residues(1, Q(2), Q(3), Q(5), Q(7))
        assert ve3_row1(res) == (Q(2, 3),)

    def test_index_one_no_ve2_log(self):
        res = run_residues(1, Q(1, 2), Q(1, 3), Q(2), Q(1, 5))
        assert not res.ve2_has_log
        assert all(a == 0 and b == 0 for a, b in res.rows[0])

    def test_index_two_nonzero_offset(self):
        # singular-solution pick carries the obstruction: N_f (8 w0/5 - 34 B_j/35)
        ch = V.HigherVEChoice("first", "first")
        for w0, wj in ((Q(1), Q(1)), (Q(1), Q(3)), (Q(2), Q(1))):
            res = run_residues(2, w0, wj, Q(1), Q(0), choice=ch)
            bj = Q(4) * w0 - 2 * wj
            assert ve3_row1(res) == (Q(8, 5) * w0 - Q(34, 35) * bj,)

    def test_index_two_zero_offset(self):
        ch = V.HigherVEChoice("first", "first")
        res = run_residues(2, Q(1), Q(2), Q(1), Q(0), choice=ch)
        assert ve3_row1(res) == (Q(8, 5),)
        res = run_residues(2, Q(3), Q(6), Q(5), Q(7), choice=ch)
        assert ve3_row1(res) == (Q(24, 5),)

    def test_index_two_standard_choice_sees_nothing(self):
        res = run_residues(2, Q(1), Q(2), Q(1), Q(0))
        assert ve3_row1(res) == (Q(0),)
        assert res.nonzero_witness() is None

    def test_half_index_all_choices_silent(self):
        p = make_params(1, [Q(1, 4)], 1, [0], Q(3, 8))
        ctx = V.ve1_context(p, E_REF, 30)
        for ch in V.SCAN_CHOICES:
            res = V.higher_ve_residues(ctx, ch)
            assert not res.ve2_has_log
            assert res.nonzero_witness() is None

    def test_five_half_index_all_choices_silent(self):
        p = make_params(1, [Q(55, 28)], Q(72, 343), [0], Q(35, 8))
        e = elliptic.invariants_from_energy(1, Q(72, 343), 0)
        ctx = V.ve1_context(p, e, 30)
        for ch in V.SCAN_CHOICES:
            res = V.higher_ve_residues(ctx, ch)
            assert not res.ve2_has_log
            assert res.nonzero_witness() is None

    def test_tangential_rows_always_silent(self):
        res = run_residues(1, Q(1), Q(1), Q(1), Q(0))
        assert res.rows[1][0][0] == 0
        assert res.rows[1][0][1] == 0

    @pytest.mark.parametrize("n, wj, c0sq, h, value", [
        (3, Q(1), Q(1), Q(0), Q(-128, 275)),
        (3, Q(2), Q(1), Q(0), Q(-17728, 5775)),
        (3, Q(1, 3), Q(2), Q(1), Q(243328, 51975)),
        (4, Q(1), Q(1), Q(0), Q(-20641024, 3972969)),
        (4, Q(2), Q(1), Q(0), Q(-161536, 57915)),
        (4, Q(1, 3), Q(2), Q(1), Q(-2485584320, 107270163))])
    def test_integer_index_above_two(self, n, wj, c0sq, h, value):
        # default choice: row 1 of the normal block is the witness; every
        # other VE2 and VE3 row is zero
        res = run_residues(n, Q(1), wj, c0sq, h)
        assert all(r == (0, 0) for r in res.rows[0])
        assert res.nonzero_witness() == ("normal_1", "first", value)
        assert res.rows[1][1][1] == 0
        assert res.rows[1][0][0] == 0
        assert res.rows[1][0][1] == 0

    @pytest.mark.parametrize("n, w0, wj, c0sq", [
        (Q(1), Q(1), [Q(1)], Q(1)),
        (Q(2), Q(1), [Q(2), Q(1)], Q(1)),
        (Q(3), Q(1), [Q(1, 3)], Q(2)),
        (Q(1, 2), Q(1), [Q(1, 4)], Q(1)),
        (Q(5, 2), Q(1), [Q(55, 28)], Q(72, 343))],
        ids=["index1", "index2-nf2", "index3", "half", "five-half"])
    def test_homogeneous_second_order_additions_drop_out(self, n, w0, wj,
                                                          c0sq):
        """Wherever VE2 is log-free, adding sol1 or sol2 of each block to
        the zero-constant second-order particulars leaves every VE3 row as
        the chain reads it.  The context is at twice the largest scan-pick
        order, so the additions' own terms are exact too."""
        p = make_params(w0, wj, c0sq, [0] * len(wj), n * (n + 1) / 2)
        e = elliptic.invariants_from_energy(w0, c0sq, 0)
        order = 2 * max(V.chain_order(n, ch) for ch in V.SCAN_CHOICES)
        ctx = V.ve1_context(p, e, order)
        tb, nbs = ctx.tangential_basis, ctx.normal_bases
        bases = (tb, *nbs)

        def pick(basis, which):
            return basis.sol1 if which == "first" else basis.sol2

        checked = 0
        for ch in V.SCAN_CHOICES:
            res = V.higher_ve_residues(ctx, ch)
            if res.ve2_has_log:
                continue
            xi0 = pick(tb, ch.pick_xi0)
            xij = [pick(b, ch.pick_xij) for b in nbs]
            k0, kj = V.forcing_k2(ctx.orbit, xi0, xij)
            vocs = [V.variation_of_constants(b, k)
                    for b, k in zip(bases, (k0, *kj))]
            for a0 in ("first", "second"):
                for aj in ("first", "second"):
                    xi0_2 = vocs[0].particular + pick(tb, a0)
                    xij_2 = [v.particular + pick(b, aj)
                             for v, b in zip(vocs[1:], nbs)]
                    k0_3, kj_3 = V.forcing_k3(ctx.orbit, xi0, xij, xi0_2,
                                              xij_2)
                    rows = tuple(((-(b.sol2 * k)).coefficient(-1),
                                  (b.sol1 * k).coefficient(-1))
                                 for b, k in zip(bases, (k0_3, *kj_3)))
                    assert rows == res.rows[1], (ch, a0, aj)
                    checked += 1
        assert checked == 16


#: (n, w0, w_j, C0^2, h) of the shared-term checks: index 1, index 2 with
#: N_f = 1 and 2, both survivors, and a C0^2 = 0 point
SHARING_POINTS = [
    pytest.param(Q(1), Q(1), [Q(1)], Q(1), Q(0), id="index1"),
    pytest.param(Q(2), Q(1), [Q(2)], Q(1), Q(0), id="index2"),
    pytest.param(Q(2), Q(1), [Q(2), Q(1)], Q(1), Q(0), id="index2-nf2"),
    pytest.param(Q(1, 2), Q(1), [Q(1, 4)], Q(1), Q(0), id="half"),
    pytest.param(Q(5, 2), Q(1), [Q(55, 28)], Q(72, 343), Q(0), id="five-half"),
    pytest.param(Q(2), Q(1), [Q(2)], Q(0), Q(-1), id="index2-c0sq0")]


def sharing_context(n, w0, wj, c0sq, h):
    """(p, e, order): the point, at the largest chain order of its picks."""
    p = make_params(w0, wj, c0sq, [0] * len(wj), n * (n + 1) / 2)
    e = elliptic.invariants_from_energy(w0, c0sq, h)
    return p, e, max(V.chain_order(n, ch) for ch in V.SCAN_CHOICES)


def first_order_picks(ctx, ch):
    def pick(basis, which):
        return basis.sol1 if which == "first" else basis.sol2
    return (pick(ctx.tangential_basis, ch.pick_xi0),
            [pick(b, ch.pick_xij) for b in ctx.normal_bases])


class TestSharedPickTerms:
    """The picks of one context share the forcing terms of each first-order
    pick; what they read must not depend on which picks ran before."""

    @pytest.mark.parametrize("n, w0, wj, c0sq, h", SHARING_POINTS)
    def test_chain_forcings_equal_fresh_forcings(self, n, w0, wj, c0sq, h):
        p, e, order = sharing_context(n, w0, wj, c0sq, h)
        shared = V.ve1_context(p, e, order)
        for ch in V.SCAN_CHOICES:
            res = V.higher_ve_residues(shared, ch)
            fresh = V.ve1_context(p, e, order)
            bases = (fresh.tangential_basis, *fresh.normal_bases)
            xi0, xij = first_order_picks(fresh, ch)
            k0, kj = V.forcing_k2(fresh.orbit, xi0, xij)
            vocs = [V.variation_of_constants(b, k)
                    for b, k in zip(bases, (k0, *kj))]
            forcings = [(k0, *kj)]
            rows = [tuple(v.log_coefficients for v in vocs)]
            if res.rows[1:]:
                k0, kj = V.forcing_k3(fresh.orbit, xi0, xij,
                                      vocs[0].particular,
                                      [v.particular for v in vocs[1:]])
                forcings.append((k0, *kj))
                rows.append(tuple(((-(b.sol2 * k)).coefficient(-1),
                                   (b.sol1 * k).coefficient(-1))
                                  for b, k in zip(bases, (k0, *kj))))
            assert [[k.dense() for k in f] for f in res.forcings] == \
                [[k.dense() for k in f] for f in forcings], ch
            assert list(res.rows) == rows, ch

    @pytest.mark.parametrize("n, w0, wj, c0sq, h", SHARING_POINTS)
    def test_reversed_picks_on_one_context(self, n, w0, wj, c0sq, h):
        p, e, order = sharing_context(n, w0, wj, c0sq, h)
        ctx = V.ve1_context(p, e, order)
        for ch in reversed(V.SCAN_CHOICES):
            assert V.higher_ve_residues(ctx, ch) == V.higher_ve_residues(
                V.ve1_context(p, e, order), ch), ch

    def test_zero_c0sq_term_bounds_k0_truncation(self):
        """At C0^2 = 0 the term 6 C0^2 q0^-5 of c2 is zero but still caps
        the truncation of K0^(2), as every term of a sum does; a q0^-5 cut
        short makes it the binding one."""
        p, e, order = sharing_context(Q(2), Q(1), [Q(2)], Q(0), Q(-1))
        ctx = V.ve1_context(p, e, order)
        orbit = ctx.orbit
        inv = orbit.qbar.invert()
        inv5_short = (inv * inv * inv * inv * inv).truncate(6)
        short = V.OrbitFactors(orbit.two_g, orbit.qbar, orbit.four_g_qbar,
                               orbit.qbar.scale(6) + inv5_short.scale(0),
                               orbit.c3)
        binding = 0
        for ch in V.SCAN_CHOICES:
            xi0, xij = first_order_picks(ctx, ch)
            bound = (inv5_short * (xi0 * xi0)).truncation_order
            full = V.forcing_k2(orbit, xi0, xij)[0].truncation_order
            k0, _ = V.forcing_k2(short, xi0, xij)
            assert k0.truncation_order == min(bound, full), ch
            binding += bound < full
        assert binding == 3         # all but (second, first)


class TestFloatCrossChecks:
    def test_contour_integral_matches_exact_residue(self):
        res = run_residues(1, Q(1), Q(1), Q(1), Q(0))
        ve1 = V.build_ve1(P_N1, E_REF, 30)
        tb = V.frobenius(ve1.tangential)
        nb = V.frobenius(ve1.normal[0])
        orbit = V.OrbitFactors.of(ve1.qbar0, 1, 1)
        k0, kj = V.forcing_k2(orbit, tb.sol2, [nb.sol1])
        voc0 = V.variation_of_constants(tb, k0)
        vocj = V.variation_of_constants(nb, kj[0])
        xi0_2 = voc0.particular + tb.sol2
        xij_2 = vocj.particular + nb.sol1
        _, kj3 = V.forcing_k3(orbit, tb.sol2, [nb.sol1], xi0_2, [xij_2])
        mu = -(nb.sol2 * kj3[0])
        exact = mu.coefficient(-1)
        assert exact == Q(2, 3)
        m, r = 256, 0.05
        total = 0j
        for k in range(m):
            tk = r * cmath.exp(2j * math.pi * k / m)
            total += evaluate(mu, tk) * tk
        numeric = total / m
        assert abs(numeric - complex(exact)) <= 1e-6 * abs(complex(exact))

    @pytest.mark.parametrize("n, wj, c0sq, h", [
        (3, Q(1, 3), Q(2), Q(1)), (4, Q(1), Q(1), Q(0))],
        ids=["index3", "index4"])
    def test_integer_index_witness_matches_monodromy_oracle(self, n, wj,
                                                             c0sq, h):
        p = make_params(1, [wj], c0sq, [0], Q(n * (n + 1), 2))
        ctx = V.ve1_context(p, elliptic.invariants_from_energy(1, c0sq, h),
                            30)
        res = V.higher_ve_residues(ctx, V.HigherVEChoice())
        tb, nbs = ctx.tangential_basis, ctx.normal_bases
        # the default choice picks xi0 = tb.sol2 and xi_j = nb.sol1
        second, third = monodromy_rows(p, ctx.orbit.qbar, tb, nbs, tb.sol2,
                                       [nb.sol1 for nb in nbs])
        for read, exact in ((second, res.rows[0]), (third, res.rows[1])):
            assert len(read) == len(exact) == 1 + len(nbs)
            for read_row, exact_row in zip(read, exact):
                for x, y in zip(read_row, exact_row):
                    assert abs(x - complex(y)) <= ORACLE_TOL


class TestSecondOrderExpansions:
    """Back-substitution-validated second-order solutions; leading terms of
    the index-two zero-offset picks."""

    def test_index_two_regular_normal_particular(self):
        p = make_params(1, [2], 1, [0], 3)
        ve1 = V.build_ve1(p, E_REF, 30)
        tb = V.frobenius(ve1.tangential)
        nb = V.frobenius(ve1.normal[0])
        k0, kj = V.forcing_k2(V.OrbitFactors.of(ve1.qbar0, 3, 1), tb.sol1,
                              [nb.sol2])
        vocj = V.variation_of_constants(nb, kj[0])
        xij_2 = vocj.particular + nb.sol2
        # -(3/5) t^2 + t^3/5 + ...
        assert xij_2.coefficient(2) == Q(-3, 5)
        assert xij_2.coefficient(3) == Q(1, 5)
        voc0 = V.variation_of_constants(tb, k0)
        p0 = voc0.particular
        assert p0.coefficient(-3) == 1
        assert p0.coefficient(-1) == 0


@st.composite
def chain_points(draw):
    """(p, e, n, choice): a case-2 point of index 1-4, 1/2, 3/2 or 5/2 with
    one or two transverse modes, C0^2 possibly 0, and any pick."""
    n = draw(st.sampled_from((Q(1), Q(2), Q(3), Q(4), Q(1, 2), Q(3, 2),
                              Q(5, 2))))
    rat = st.fractions(min_value=Q(1, 4), max_value=3, max_denominator=4)
    w0 = draw(rat)
    wj = draw(st.lists(rat, min_size=1, max_size=2))
    c0sq = draw(st.one_of(st.just(Q(0)), rat))
    h = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
    side = st.sampled_from(("first", "second"))
    choice = V.HigherVEChoice(draw(side), draw(side))
    p = make_params(w0, wj, c0sq, [0] * len(wj), n * (n + 1) / 2)
    try:
        e = elliptic.invariants_from_energy(w0, c0sq, h)
    except elliptic.DegenerateInvariantsError:
        e = None
    return p, e, n, choice


@given(chain_points())
@settings(max_examples=20, deadline=None)
def test_chain_order_certifies_every_reading(point):
    """At chain_order the chain with that pick reads every value exactly:
    no InsufficientOrderError, whatever the point and the pick."""
    p, e, n, choice = point
    assume(e is not None)
    order = V.chain_order(n, choice)
    try:
        ctx = V.ve1_context(p, e, order)
    except V.FirstOrderLogError:
        # no chain runs: lame.theorem5_check fails such a block first
        assume(False)
    V.higher_ve_residues(ctx, choice)


#: chain_order per SCAN_CHOICES pick at the Lame indices n = 1..40 and
#: n = 1/2..79/2: the orders any rewrite of the forcings must keep
CHAIN_ORDERS = {
    ("first", "first"): (
        [7, 7, 11, 15, 19, 23, 27, 31, 35, 39, 43, 47, 51, 55, 59, 63, 67, 71,
         75, 79, 83, 87, 91, 95, 99, 103, 107, 111, 115, 119, 123, 127, 131,
         135, 139, 143, 147, 151, 155, 159],
        [7, 7, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53, 57, 61, 65, 69,
         73, 77, 81, 85, 89, 93, 97, 101, 105, 109, 113, 117, 121, 125, 129,
         133, 137, 141, 145, 149, 153, 157]),
    ("first", "second"): (
        [7, 7, 7, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36,
         38, 40, 42, 44, 46, 48, 50, 52, 54, 56, 58, 60, 62, 64, 66, 68, 70,
         72, 74, 76, 78, 80],
        [7, 7, 7, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37,
         39, 41, 43, 45, 47, 49, 51, 53, 55, 57, 59, 61, 63, 65, 67, 69, 71,
         73, 75, 77, 79]),
    ("second", "first"): (
        [4, 7, 11, 15, 19, 23, 27, 31, 35, 39, 43, 47, 51, 55, 59, 63, 67, 71,
         75, 79, 83, 87, 91, 95, 99, 103, 107, 111, 115, 119, 123, 127, 131,
         135, 139, 143, 147, 151, 155, 159],
        [4, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53, 57, 61, 65, 69,
         73, 77, 81, 85, 89, 93, 97, 101, 105, 109, 113, 117, 121, 125, 129,
         133, 137, 141, 145, 149, 153, 157]),
    ("second", "second"): (
        [4, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36,
         38, 40, 42, 44, 46, 48, 50, 52, 54, 56, 58, 60, 62, 64, 66, 68, 70,
         72, 74, 76, 78, 80],
        [4, 4, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37,
         39, 41, 43, 45, 47, 49, 51, 53, 55, 57, 59, 61, 63, 65, 67, 69, 71,
         73, 75, 77, 79]),
}


def test_chain_order_table():
    """chain_order runs the forcings on valuations; a rewrite of the forcing
    layer must certify the same order for every pick and index."""
    for (p0, pj), (whole, halves) in CHAIN_ORDERS.items():
        ch = V.HigherVEChoice(p0, pj)
        assert [V.chain_order(Q(n), ch) for n in range(1, 41)] == whole, ch
        assert [V.chain_order(Q(2 * n - 1, 2), ch)
                for n in range(1, 41)] == halves, ch


@st.composite
def ve1_points(draw):
    """(p, e, n): index 1-3, 1/2-7/2, 7/6 or 1/4, one or two transverse
    modes, each block random or on a surviving family (B_j = 0; the m = 3
    triple), C0^2 possibly 0."""
    n = draw(st.sampled_from((Q(1), Q(2), Q(3), Q(1, 2), Q(3, 2), Q(5, 2),
                              Q(7, 2), Q(7, 6), Q(1, 4))))
    rat = st.fractions(min_value=Q(1, 4), max_value=3, max_denominator=4)
    w0 = draw(rat)
    c0sq = draw(st.one_of(st.just(Q(0)), rat, st.just(Q(72, 343) * w0 ** 3)))
    block = st.one_of(rat, st.just(w0 * n * (n + 1) / 3),
                      st.just(Q(55, 28) * w0))
    wj = draw(st.lists(block, min_size=1, max_size=2))
    h = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    p = make_params(w0, wj, c0sq, [0] * len(wj), n * (n + 1) / 2)
    try:
        e = elliptic.invariants_from_energy(w0, c0sq, h)
    except elliptic.DegenerateInvariantsError:
        e = None
    return p, e, n


@given(ve1_points())
@settings(max_examples=60, deadline=None)
def test_ve1_context_raises_iff_a_resonance_coefficient_is_nonzero(point):
    """VE1's coefficients are even in t, so only a half-integer index meets
    a resonance; ve1_context raises exactly where one of its blocks has a
    nonzero resonance coefficient at the user's h, with the first such
    value."""
    p, e, n = point
    assume(e is not None)
    order = V.chain_order(n, V.standard_choice(n))
    if (n + Q(1, 2)).denominator != 1:
        V.ve1_context(p, e, order)
        return
    nonzero = [r for r in V.resonance_coefficients(p, e, n) if r]
    try:
        V.ve1_context(p, e, order)
    except V.FirstOrderLogError as exc:
        assert nonzero and exc.coefficient == nonzero[0]
    else:
        assert not nonzero
