import random
from fractions import Fraction as Q

import pytest

from bfmix import elliptic
from bfmix.series import PuiseuxSeries


def first_curve(w0, c0sq, h):
    """The curve at the first of the energies h, h + 1, ... that is not
    degenerate."""
    h = Q(h)
    while True:
        try:
            return elliptic.invariants_from_energy(w0, c0sq, h)
        except elliptic.DegenerateInvariantsError:
            h += 1


def random_rational(rng: random.Random, max_num=9, nonzero=False) -> Q:
    while True:
        v = Q(rng.randint(-max_num, max_num), rng.randint(1, max_num))
        if v != 0 or not nonzero:
            return v


def random_series(rng: random.Random, lo=-3, hi=4, trunc=8, half=False) -> PuiseuxSeries:
    step = Q(1, 2) if half else Q(1)
    terms = {}
    e = Q(lo)
    while e < hi:
        if rng.random() < 0.6:
            terms[e] = random_rational(rng)
        e += step
    return PuiseuxSeries(terms, Q(trunc))


def ve3_row1(res):
    """Per normal block, the row-1 VE3 residue of a chain result."""
    return tuple(r[0] for r in res.rows[1][1:])


@pytest.fixture
def rng():
    return random.Random(20260810)
