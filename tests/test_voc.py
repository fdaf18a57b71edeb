"""``variational.variation_of_constants``, the forced Frobenius recursion,
against the product form it replaced (``helpers_voc.product_voc``): equal
rows everywhere, equal particulars wherever both rows are zero, and
InsufficientOrderError on exactly the same inputs."""
import random
from fractions import Fraction as Q
from functools import partial

import pytest

from bfmix import elliptic, variational as V, verdict
from bfmix.model import make_params
from bfmix.series import InsufficientOrderError, PuiseuxSeries
from helpers_voc import product_voc


def assert_matches_product_form(basis, forcing):
    """'raised', 'zero' or 'log': how the product form read the block,
    after checking that the recursion reads it the same way."""
    try:
        want = product_voc(basis, forcing)
    except InsufficientOrderError:
        with pytest.raises(InsufficientOrderError):
            V.variation_of_constants(basis, forcing)
        return "raised"
    got = V.variation_of_constants(basis, forcing)
    assert got.log_coefficients == want.log_coefficients
    if any(want.log_coefficients):
        assert got.particular is None
        return "log"
    assert got.particular == want.particular
    assert got.particular.dense() == want.particular.dense()
    return "zero"


#: (w_1, w_2, C0^2) per Lame index, each w_j with a log-free VE1 at h = 0
#: (the half-integer ones are resonance-free there; 7/2 to 11/2 have no
#: such w_j in a small grid, so they are left out)
SWEEP = {Q(1, 2): (Q(1, 4), Q(1, 4), Q(1)), Q(3, 2): (Q(1, 4), Q(1, 4), Q(1)),
         Q(5, 2): (Q(55, 28), Q(55, 28), Q(72, 343)),
         **{Q(n): (Q(1), Q(2), Q(1)) for n in range(1, 7)}}


@pytest.mark.parametrize("n", sorted(SWEEP), ids=str)
@pytest.mark.parametrize("n_f", [1, 2])
def test_chain_blocks_match_the_product_form(n, n_f):
    """Every VE2 block of every SCAN_CHOICES pick at its chain_order and two
    orders above: the rows, and the particulars the VE3 forcing reads.  The
    chain order certifies every row, and index 3/2 reads nonzero ones."""
    *wj, c0sq = SWEEP[n]
    wj = wj[:n_f]
    p = make_params(1, wj, c0sq, [0] * n_f, n * (n + 1) / 2)
    e = elliptic.invariants_from_energy(1, c0sq, 0)
    seen = []
    for ch in V.SCAN_CHOICES:
        for extra in (0, 2):
            ctx = V.ve1_context(p, e, V.chain_order(n, ch) + extra)
            bases = (ctx.tangential_basis, *ctx.normal_bases)
            xi0 = V._pick(ctx.tangential_basis, ch.pick_xi0)
            xij = [V._pick(b, ch.pick_xij) for b in ctx.normal_bases]
            k0, kj = V.forcing_k2(ctx.orbit, xi0, xij)
            seen += [assert_matches_product_form(b, k)
                     for b, k in zip(bases, (k0, *kj))]
    assert len(seen) == 8 * (1 + n_f) and "raised" not in seen
    assert ("log" in seen) == (n == Q(3, 2))


def synthetic_block(rng):
    """(basis, K) or None: q = c2/t^2 plus an even tail, and a forcing whose
    terms often sit at rho1 - 2 and rho2 - 2 or two below them, with
    truncations of q and K often too short to read a row."""
    rho2 = rng.choice((Q(-1), Q(-2), Q(-1, 2), Q(-3, 2), Q(-1, 3), Q(0)))
    rho1 = 1 - rho2
    m = rng.randint(0, 5)
    terms = {Q(-2): rho2 * (rho2 - 1)}
    for j in range(1, m + 1):
        if rng.random() < 0.7:
            terms[Q(2 * j - 2)] = Q(rng.randint(-6, 6), rng.randint(1, 4))
    q = PuiseuxSeries(terms, 2 * m - 2 + rng.choice((Q(1, 2), 1, 2)))
    try:
        basis = V.frobenius(q)
    except (V.FirstOrderLogError, InsufficientOrderError):
        return None
    pool = [rho - 2 + 2 * i for rho in (rho1, rho2) for i in (-1, 0, 1)]
    pool += [Q(rng.randint(-12, 6), 2) for _ in range(2)]
    exps = rng.sample(pool, rng.randint(1, 4))
    forcing = {x: Q(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for x in exps}
    top = max(exps) if rng.random() < 0.7 else min(exps)
    return basis, PuiseuxSeries(forcing, top + rng.choice((Q(1, 2), 1, 3)))


def test_synthetic_blocks_match_the_product_form():
    """Seeded blocks: nonzero rows, zero rows and unreadable rows all occur,
    and the recursion agrees with the product form on each."""
    rng = random.Random(2007)
    seen = []
    while len(seen) < 600:
        block = synthetic_block(rng)
        if block is not None:
            seen.append(assert_matches_product_form(*block))
    assert min(seen.count(kind) for kind in ("raised", "zero", "log")) >= 50


def test_nonzero_ve2_row_gives_the_ve_log_witness():
    """At index 3/2 with w_1 = 1/4, C0^2 = 1 and h = 0, VE1 is log-free and
    the pick ("first", "first") reads a nonzero VE2 row in the tangential
    block (analyze_case2 stops before, at the Theorem-5 check on h = 1).
    The chain stops at VE2, and _ve_verdict reports its rows as a ve_log
    witness, marked found_by_scan when the pick was not the first one
    run."""
    n, ch = Q(3, 2), V.HigherVEChoice("first", "first")
    p = make_params(1, [Q(1, 4)], 1, [0], Q(15, 8))
    ctx = V.ve1_context(p, elliptic.invariants_from_energy(1, 1, 0),
                        V.chain_order(n, ch))
    res = V.higher_ve_residues(ctx, ch)
    assert res.ve2_has_log and len(res.rows) == len(res.forcings) == 1
    bases = (ctx.tangential_basis, *ctx.normal_bases)
    assert list(res.rows[0]) == [product_voc(b, k).log_coefficients
                                 for b, k in zip(bases, res.forcings[0])]
    assert res.rows[0] == ((Q(-3, 4), 0), (0, 0))

    want = {"order": 2, "log_coefficients": [["-3/4", "0"], ["0", "0"]],
            "choice": {"pick_xi0": "first", "pick_xij": "first"}}
    for scanned in (False, True):
        found = verdict._ve_verdict(
            res, partial(verdict.IntegrabilityVerdict, "case2", params={}),
            {"lame_index": "3/2"}, scanned=scanned)
        assert (found.outcome, found.witness.kind) == ("NonIntegrable",
                                                       "ve_log")
        assert found.witness.data == (dict(want, found_by_scan=True)
                                      if scanned else want)
        assert found.details == {"lame_index": "3/2"}
