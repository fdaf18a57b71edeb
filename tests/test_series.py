import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfmix.series import (INF, FieldExtensionError, InsufficientOrderError,
                          PuiseuxSeries, ZeroDivisionSeriesError)
from conftest import random_rational, random_series
from helpers_series import (agrees_with, antiderivative, differentiate,
                            evaluate, variable)

t = variable()
one = PuiseuxSeries.constant(1)


def S(d, trunc=INF):
    return PuiseuxSeries(d, trunc)


class TestAdd:
    def test_additive_inverse(self):
        a = S({-2: 1})
        assert not a + a.scale(-1)

    def test_plain_sum(self):
        got = S({-1: 1, 1: 1}) + S({-1: 2})
        assert got == S({-1: 3, 1: 1})

    def test_lattice_merge(self):
        got = S({Q(-1, 2): 1}) + S({Q(3, 2): 1})
        assert got.dense()[0] == 2
        assert got.coefficient(Q(-1, 2)) == 1
        assert got.coefficient(Q(3, 2)) == 1

    def test_truncation_is_min(self):
        got = S({0: 1}, 5) + S({1: 1}, 3)
        assert got.truncation_order == 3


class TestMul:
    def test_inverse_pair(self):
        assert (t.invert() * t) == one

    def test_plain_product(self):
        a = S({-2: 1, 0: Q(-1, 3)})          # 1/t^2 - 1/3
        b = S({3: Q(1, 5)})                  # t^3/5
        got = a * b
        assert got.coefficient(1) == Q(1, 5)
        assert got.coefficient(3) == Q(-1, 15)

    def test_square(self):
        a = S({-1: 1, 1: Q(1, 2)})
        sq = a * a
        assert sq == S({-2: 1, 0: 1, 2: Q(1, 4)})

    def test_truncation_rule(self):
        a = S({1: 1}, 4)     # known through t^3
        b = S({-1: 1}, 10)
        assert (a * b).truncation_order == 3


class TestInvert:
    def test_monomial(self):
        assert (t * t).invert() == S({-2: 1})

    def test_geometric(self):
        inv = (one + t).truncate(6).invert()
        for k in range(6):
            assert inv.coefficient(k) == (-1) ** k

    def test_exact_multi_term_raises(self):
        for expand in (PuiseuxSeries.invert, PuiseuxSeries.sqrt):
            with pytest.raises(ValueError, match="truncate first"):
                expand(one + t)

    def test_pole_plus_constant(self):
        a = S({-2: 1, 0: Q(2, 3)}, 16)
        inv = a.invert()
        assert inv.coefficient(2) == 1
        assert inv.coefficient(4) == Q(-2, 3)
        assert inv.coefficient(6) == Q(4, 9)
        prod = a * inv
        assert prod.coefficient(0) == 1
        assert all(c == 0 for e, c in prod.terms() if e != 0)

    def test_zero_series_raises(self):
        with pytest.raises(ZeroDivisionSeriesError):
            PuiseuxSeries({}, 4).invert()


class TestSqrt:
    def test_monomial(self):
        assert (t * t).sqrt() == t

    def test_constant(self):
        assert PuiseuxSeries.constant(4).sqrt() == PuiseuxSeries.constant(2)

    def test_elliptic_branch(self):
        # 1/t^2 + 2/3 + (g2/20) t^2 + (g3/28) t^4 at w0 = 1, g2 = 16/3
        g2 = Q(16, 3)
        a = S({-2: 1, 0: Q(2, 3), 2: g2 / 20, 4: Q(1, 7)}, 6)
        r = a.sqrt()
        assert r.coefficient(-1) == 1
        assert r.coefficient(1) == Q(1, 3)
        assert r.coefficient(3) == Q(7, 90)      # g2/40 - w0^2/18
        assert not (r * r - a)

    def test_nonsquare_leading_raises(self):
        with pytest.raises(FieldExtensionError):
            S({0: 2}).sqrt()

    def test_odd_exponent_ramifies(self):
        r = t.sqrt()
        assert r.base_exponent == Q(1, 2)
        assert not (r * r - t)


class TestCalculus:
    def test_differentiate(self):
        assert differentiate(S({3: Q(1, 5)})) == S({2: Q(3, 5)})
        assert differentiate(S({-2: 1})) == S({-3: -2})
        assert not differentiate(one)

    def test_residue_read_off(self):
        bj, g2 = Q(2), Q(16, 3)
        mu = S({-7: 12, -5: -4 * bj, -1: bj * (g2 - bj * bj / 3)}, 1)
        assert mu.coefficient(-1) == 8

    def test_residue_missing_lattice_point(self):
        assert S({Q(-3, 2): 1, Q(1, 2): 1}).coefficient(-1) == 0

    def test_residue_needs_order(self):
        with pytest.raises(InsufficientOrderError):
            S({-3: 1}, -2).coefficient(-1)

    def test_antiderivative_log(self):
        primitive, log_coefficient = antiderivative(t.invert())
        assert log_coefficient == 1
        assert not primitive

    def test_antiderivative_power(self):
        assert antiderivative(S({2: 3}))[0] == S({3: 1})

    def test_antiderivative_needs_order_above_minus_one(self):
        with pytest.raises(InsufficientOrderError):
            antiderivative(S({-3: 1}, -1))
        assert antiderivative(S({-3: 1}, Q(-1, 2)))[1] == 0

    def test_antiderivative_mixed(self):
        primitive, log_coefficient = antiderivative(S({-2: 2, -1: 5}))
        assert log_coefficient == 5
        assert primitive == S({-1: -2})


def lattice_series(rng: random.Random) -> PuiseuxSeries:
    """0 to 5 terms at (base + step * k) / den, den 1 or 2 and step 1 to 3,
    cut at INF or at one of t^-3, t^-5/2, ..., t^4."""
    den, step, base = rng.choice((1, 2)), rng.randint(1, 3), rng.randint(-8, 2)
    terms = {Q(base + step * k, den): Q(rng.randint(-4, 4), rng.randint(1, 3))
             for k in range(rng.randint(0, 5))}
    return PuiseuxSeries(terms, rng.choice((INF, *(Q(k, 2)
                                                   for k in range(-6, 9)))))


def test_product_residue_is_the_residue_of_the_product():
    """a.product_residue(b) is (a * b).coefficient(-1), and raises
    InsufficientOrderError on exactly the pairs where that does.  Pairs
    that raise, have an empty factor, have no two exponents summing to -1,
    or have some, all occur."""
    rng = random.Random(3907)
    seen = {"raised": 0, "empty": 0, "miss": 0, "hit": 0}
    for _ in range(3000):
        a, b = lattice_series(rng), lattice_series(rng)
        try:
            want = (a * b).coefficient(-1)
        except InsufficientOrderError:
            with pytest.raises(InsufficientOrderError):
                a.product_residue(b)
            seen["raised"] += 1
            continue
        got = a.product_residue(b)
        assert got == want and isinstance(got, Q), (a, b)
        if not (a and b):
            seen["empty"] += 1
        elif any(x + y == -1 for x, _ in a.terms() for y, _ in b.terms()):
            seen["hit"] += 1
        else:
            seen["miss"] += 1
    assert min(seen.values()) >= 100, seen


class TestRingAxioms:
    def test_thousand_randomized_cases(self):
        rng = random.Random(1234)
        for k in range(1000):
            a = random_series(rng, trunc=7)
            b = random_series(rng, trunc=6)
            c = random_series(rng, trunc=8)
            assert agrees_with((a + b) + c, a + (b + c))
            assert agrees_with(a * (b + c), a * b + a * c)
            assert agrees_with(a * b, b * a)

    def test_derivative_kills_residue(self, rng):
        for _ in range(50):
            f = random_series(rng)
            assert differentiate(f).coefficient(-1) == 0

    def test_residue_linearity(self, rng):
        for _ in range(50):
            a, b = random_series(rng), random_series(rng)
            al, be = random_rational(rng), random_rational(rng)
            assert (a.scale(al) + b.scale(be)).coefficient(-1) == \
                al * a.coefficient(-1) + be * b.coefficient(-1)

    def test_antiderivative_roundtrip(self, rng):
        for _ in range(50):
            a = random_series(rng)
            primitive, log_coefficient = antiderivative(a)
            rebuilt = differentiate(primitive) + \
                PuiseuxSeries({-1: log_coefficient}, INF)
            assert agrees_with(rebuilt, a)


@given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=5),
       st.integers(min_value=-3, max_value=2))
@settings(max_examples=200, deadline=None)
def test_mul_invert_roundtrip(coeffs, base):
    terms = {Q(base + i): c for i, c in enumerate(coeffs)}
    a = PuiseuxSeries(terms, Q(base + 8))
    if not a:
        return
    prod = a * a.invert()
    assert prod.coefficient(0) == 1
    assert all(c == 0 for e, c in prod.terms() if e != 0)


@given(st.lists(st.fractions(max_denominator=5), min_size=0, max_size=4))
@settings(max_examples=200, deadline=None)
def test_sqrt_squares_back(tail):
    terms = {Q(-2): Q(1)}
    for i, c in enumerate(tail):
        terms[Q(-1 + i)] = c
    a = PuiseuxSeries(terms, Q(4))
    r = a.sqrt()
    assert not (r * r - a)


class TestSerialization:
    def test_exact_rows(self):
        rows = list(S({-2: Q(3, 4), 1: Q(-1, 2)}).to_csv_rows())
        assert rows == ["-2,3,4", "1,-1,2"]

    def test_half_integer_exponent(self):
        rows = list(S({Q(-1, 2): Q(1, 3)}).to_csv_rows())
        assert rows == ["-1/2,1,3"]


# -- the dense kernel against a naive dict-of-Fraction reference ---------------
# A reference series is (terms, trunc) with terms {exponent: nonzero coeff}.

def ref_make(terms, trunc):
    return {e: c for e, c in terms.items() if c != 0 and e < trunc}, trunc


def ref_add(a, b):
    d = dict(a[0])
    for e, c in b[0].items():
        d[e] = d.get(e, 0) + c
    return ref_make(d, min(a[1], b[1]))


def ref_scale(a, k):
    return ref_make({e: c * k for e, c in a[0].items()}, a[1])


def ref_sub(a, b):
    return ref_add(a, ref_scale(b, -1))


def ref_antiderivative(a):
    """(primitive, log coefficient) of the termwise primitive."""
    primitive = {e + 1: c / (e + 1) for e, c in a[0].items() if e != -1}
    return ref_make(primitive, a[1] + 1), a[0].get(Q(-1), 0)


def ref_mul(a, b):
    val_a, val_b = min(a[0], default=a[1]), min(b[0], default=b[1])
    d = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return ref_make(d, min(val_a + b[1], val_b + a[1]))


def ref_unit_power(a, power_coeff, lead, shift):
    """lead(c0) t^shift(v) sum_k power_coeff(k) u^k, u = a / (c0 t^v) - 1,
    kept to the relative order of ``a``."""
    v = min(a[0])
    c0 = a[0][v]
    rel = a[1] - v
    u = ref_make({e - v: c / c0 for e, c in a[0].items() if e != v}, rel)
    acc = power = ({Q(0): Q(1)}, INF)
    k = 0
    while power[0] and min(power[0]) < rel:
        k += 1
        power = ref_mul(power, u)
        acc = ref_add(acc, ({e: c * power_coeff(k) for e, c in power[0].items()},
                            power[1]))
    return ref_make({e + shift(v): c * lead(c0) for e, c in acc[0].items()},
                    min(acc[1], rel) + shift(v))


def ref_invert(a):
    return ref_unit_power(a, lambda k: (-1) ** k, lambda c0: 1 / c0, lambda v: -v)


def ref_sqrt(a):
    def binom(k):
        return math.prod(Q(1, 2) - i for i in range(k)) / math.factorial(k)
    root = lambda c0: Q(math.isqrt(c0.numerator), math.isqrt(c0.denominator))
    return ref_unit_power(a, binom, root, lambda v: v / 2)


@st.composite
def series_inputs(draw, square_lead=False):
    """(terms, trunc) on the step-1 or step-1/2 lattice through an integer
    or half-integer base, truncated at INF or just around its last term."""
    step = draw(st.sampled_from((Q(1), Q(1, 2))))
    base = Q(draw(st.integers(-6, 4)), 2)
    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    coeffs = draw(st.lists(small, max_size=6))
    if square_lead:
        root = draw(small.filter(bool))
        coeffs = [root * root] + coeffs
    trunc = draw(st.one_of(st.just(INF), st.integers(-2, 4).map(
        lambda k: base + (len(coeffs) + k) * step)))
    return ref_make({base + k * step: c for k, c in enumerate(coeffs)}, trunc)


def assert_matches_reference(got, want):
    assert got.truncation_order == want[1]
    assert dict(got.terms()) == want[0]


@given(series_inputs(), series_inputs(),
       st.one_of(st.just(INF), st.integers(-8, 8).map(lambda k: Q(k, 2))))
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_reference(a, b, cut):
    x, y = PuiseuxSeries(*a), PuiseuxSeries(*b)
    assert_matches_reference(x + y, ref_add(a, b))
    assert_matches_reference(x * y, ref_mul(a, b))
    assert_matches_reference(x.truncate(cut), ref_make(a[0], min(a[1], cut)))
    # the float value of the known terms, to 1e-12 of their summed magnitudes
    t0 = 0.3 + 0.2j
    want = sum(c * t0 ** e for e, c in a[0].items())
    size = sum(abs(c * t0 ** e) for e, c in a[0].items())
    assert abs(evaluate(x, t0) - want) <= 1e-12 * size


def assert_canonical(x):
    """The invariants of the canonical form, read off the fields alone."""
    L, base, step, coeffs, den, trunc = x.dense()
    if not coeffs:
        assert (base, step, den) == (0, L, 1)
    else:
        assert coeffs[0] and coeffs[-1]
        if len(coeffs) == 1:
            assert step == L
        else:
            assert math.gcd(*(k for k, c in enumerate(coeffs) if c)) == 1
        assert math.gcd(den, *coeffs) == 1
    assert math.gcd(L, base, step, 0 if trunc == INF else trunc) == 1


def ref_sum_of_products(a, b, c, d):
    return ref_add(ref_mul(a, b), ref_mul(c, d))


def assert_is_reference(got, want):
    """got matches the reference and has the fields and hash of the series
    the dict constructor builds from it."""
    assert_matches_reference(got, want)
    assert_canonical(got)
    built = PuiseuxSeries(*want)
    assert got.dense() == built.dense() and hash(got) == hash(built)


#: scale factors: an int, a negative int, zero, and Fractions of both signs
SCALE_FACTORS = (3, -2, 0, Q(5, 4), Q(-2, 9))


def assert_linear_operations_are_reference(a, b):
    """x - y, y - x, x - x and a subtraction with a side holding no term,
    scale by each of SCALE_FACTORS, and the primitive of x with and
    without a t^-1 term, all against the reference and canonical."""
    x, y = PuiseuxSeries(*a), PuiseuxSeries(*b)
    assert_is_reference(x - y, ref_sub(a, b))
    assert_is_reference(y - x, ref_sub(b, a))
    assert_is_reference(x - x, ref_sub(a, a))
    assert not (x - x)
    empty = ({}, b[1])
    assert_is_reference(x - PuiseuxSeries(*empty), ref_sub(a, empty))
    assert_is_reference(PuiseuxSeries(*empty) - x, ref_sub(empty, a))
    for k in SCALE_FACTORS:
        assert_is_reference(x.scale(k), ref_scale(a, k))
    for r in (a, ref_add(a, ({Q(-1): Q(3, 2)}, INF))):
        z = PuiseuxSeries(*r)
        if r[1] <= -1:
            with pytest.raises(InsufficientOrderError):
                antiderivative(z)
            continue
        primitive, log_coefficient = antiderivative(z)
        want, want_log = ref_antiderivative(r)
        assert_is_reference(primitive, want)
        assert log_coefficient == want_log
        assert isinstance(log_coefficient, Q)


@st.composite
def shared_lattice_pairs(draw):
    """Two references on one step and one coefficient denominator, so that
    + and * take their cheap case.  The second is the first negated (a sum
    cancelling to zero), the first negated at odd positions (a sum on twice
    the step), a single term, or free; truncations at INF or around the last
    terms cut the products."""
    step = draw(st.sampled_from((Q(1), Q(1, 2), Q(1, 3))))
    den = draw(st.sampled_from((1, 2, 6)))
    base = step * draw(st.integers(-6, 3))
    nums = st.integers(-5, 5)

    def trunc(top):
        return draw(st.one_of(st.just(INF), st.integers(-3, 2).map(
            lambda k: base + (top + k) * step)))

    xs = draw(st.lists(nums, min_size=1, max_size=6))
    kind = draw(st.sampled_from(("negated", "odd-negated", "single", "free")))
    if kind == "negated":
        ys = [-x for x in xs]
    elif kind == "odd-negated":
        ys = [-x if k % 2 else x for k, x in enumerate(xs)]
    elif kind == "single":
        ys = [0] * draw(st.integers(0, 3)) + [draw(nums.filter(bool))]
    else:
        ys = draw(st.lists(nums, min_size=1, max_size=6))
    return tuple(
        ref_make({base + k * step: Q(v, den) for k, v in enumerate(vs)},
                 trunc(len(vs)))
        for vs in (xs, ys))


@given(shared_lattice_pairs(), shared_lattice_pairs())
@settings(max_examples=150, deadline=None)
def test_cheap_cases_match_reference(ab, cd):
    (a, b), (c, d) = ab, cd
    x, y = PuiseuxSeries(*a), PuiseuxSeries(*b)
    assert_is_reference(x + y, ref_add(a, b))
    assert_is_reference(x * y, ref_mul(a, b))
    assert_is_reference(x * x, ref_mul(a, a))
    got = x * y + PuiseuxSeries(*c) * PuiseuxSeries(*d)
    assert_is_reference(got, ref_sum_of_products(a, b, c, d))
    assert_linear_operations_are_reference(a, b)


@given(series_inputs(square_lead=True))
@settings(max_examples=100, deadline=None)
def test_invert_and_sqrt_match_reference(a):
    if not a[0]:
        return
    if a[1] == INF and len(a[0]) > 1:
        # an exact series of several terms expands only once truncated
        a = ref_make(a[0], min(a[0]) + 16)
    x = PuiseuxSeries(*a)
    assert_matches_reference(x.invert(), ref_invert(a))
    assert_matches_reference(x.sqrt(), ref_sqrt(a))


# -- the canonical integer-lattice form -----------------------------------------
# Every series is held as coeffs[k] / den * t**((base + k*step) / L) with one
# lattice denominator L; the reference below is the dict-of-Fraction form.

def ref_ramification(ref):
    terms, trunc = ref
    d = math.lcm(*(e.denominator for e in terms))
    return d if trunc == INF else math.lcm(d, trunc.denominator)


@st.composite
def mixed_lattice_inputs(draw):
    """(terms, trunc) with exponents on the lattice 1/6, 1/3, 1/2 or 1 and a
    truncation on another of them, e.g. integer exponents cut at 7/3."""
    term_den = draw(st.sampled_from((1, 2, 3, 6)))
    exps = draw(st.lists(st.integers(-12, 12), max_size=5, unique=True))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = {Q(x, term_den): draw(small) for x in exps}
    trunc = draw(st.one_of(st.just(INF), st.builds(
        Q, st.integers(-12, 18), st.sampled_from((1, 2, 3)))))
    return ref_make(terms, trunc)


def padded_dense(ref, extra, pad, scale):
    """The same series through from_dense, on a lattice ``extra`` times finer
    than needed, with ``pad`` zeros at both ends and every numerator and the
    denominator multiplied by ``scale``: a non-canonical input."""
    terms, trunc = ref
    L = ref_ramification(ref) * extra
    den = math.lcm(*(c.denominator for c in terms.values())) * scale
    base = min((int(e * L) for e in terms), default=0) - pad
    top = max((int(e * L) for e in terms), default=0) + pad
    coeffs = [0] * (top - base + 1)
    for e, c in terms.items():
        coeffs[int(e * L) - base] = int(c * den)
    t = INF if trunc == INF else int(trunc * L)
    return PuiseuxSeries.from_dense(L, base, 1, coeffs, den, t)


@given(mixed_lattice_inputs(), st.integers(1, 4), st.integers(0, 3),
       st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_equal_series_have_equal_fields_and_hashes(ref, extra, pad, scale,
                                                   data):
    terms, trunc = ref
    x = PuiseuxSeries(terms, trunc)
    y = padded_dense(ref, extra, pad, scale)
    # a split into two summands, the second known at least as far
    split = {e: c for e, c in terms.items()
             if data.draw(st.booleans(), label="in first summand")}
    z = (PuiseuxSeries(split, trunc)
         + PuiseuxSeries({e: c for e, c in terms.items() if e not in split}))
    for other in (y, z):
        assert other.dense() == x.dense()
        assert other == x and hash(other) == hash(x)
    assert x.dense()[0] == ref_ramification(ref)
    assert x.truncation_order == trunc
    assert x.base_exponent == min(terms, default=trunc)
    assert dict(x.terms()) == terms
    for e in [*terms, Q(-1, 5), Q(1, 6), Q(0)]:
        if trunc == INF or e < trunc:
            assert x.coefficient(e) == terms.get(e, 0)
        else:
            with pytest.raises(InsufficientOrderError):
                x.coefficient(e)


@given(mixed_lattice_inputs(), mixed_lattice_inputs(), mixed_lattice_inputs(),
       mixed_lattice_inputs())
@settings(max_examples=100, deadline=None)
def test_sum_of_products_on_mixed_lattices_matches_reference(a, b, c, d):
    x, y, z, w = (PuiseuxSeries(*r) for r in (a, b, c, d))
    assert_is_reference(x * y + z * w, ref_sum_of_products(a, b, c, d))
    assert_linear_operations_are_reference(a, b)


class TestMixedLattices:
    def test_integer_exponents_with_third_truncation(self):
        x = S({0: 1, 1: 2}, Q(7, 3))
        assert x.dense()[0] == 3
        assert x.truncation_order == Q(7, 3)
        assert x.dense() == (3, 0, 3, [1, 2], 1, 7)
        assert x == PuiseuxSeries.from_dense(6, 0, 2, [2, 0, 0, 4, 0], 2, 14)
        assert x.coefficient(2) == 0
        with pytest.raises(InsufficientOrderError):
            x.coefficient(Q(7, 3))

    def test_half_and_third_steps_sum_on_sixths(self):
        x = S({Q(1, 2): 1, Q(3, 2): 1}) + S({Q(1, 3): 1, Q(4, 3): 1})
        assert x.dense()[0] == 6
        assert dict(x.terms()) == {Q(1, 3): 1, Q(1, 2): 1, Q(4, 3): 1,
                                   Q(3, 2): 1}
        assert x == S({Q(1, 3): 1, Q(1, 2): 1, Q(4, 3): 1, Q(3, 2): 1})

    def test_sqrt_doubles_the_lattice(self):
        r = S({-1: 1, 0: 1}, 3).sqrt()
        assert r.dense()[0] == 2
        assert r.base_exponent == Q(-1, 2)
        # relative order 4, as for the argument, above the valuation -1/2
        assert r.truncation_order == Q(7, 2)

    def test_empty_series_is_canonical(self):
        a = S({}, Q(-2, 6))
        b = S({0: 1}, 1) * S({}, Q(-1, 3))
        assert a.dense() == (3, 0, 3, [], 1, -1)
        assert b == a and hash(b) == hash(a)

    @pytest.mark.parametrize("c", [0, 7, Q(-3, 4)], ids=["zero", "int", "neg"])
    def test_constant_and_scale_match_the_dict_constructor(self, c):
        assert PuiseuxSeries.constant(c).dense() == S({0: c}).dense()
        x = S({Q(-1, 2): 2, Q(1, 2): Q(-5, 3), 3: 1}, 4)
        want = S({e: k * c for e, k in x.terms()}, x.truncation_order)
        assert x.scale(c).dense() == want.dense()
