"""The maximality probe and the explicit backend's indexed ``l1``.

The enumerator asks ``_maximal_mask(n, c, y)`` wherever it knows ``c`` is
a component, and counts it as one ``l1`` call.  Its contract is
``_l1_mask(n, c, y) == c`` for every component ``c`` and every ``y``
holding it; these tests hold both shipped backends to it over every such
pair on seeded graphs and families.  The explicit backend's ``l1``
answers from its per-element bitmaps; it must answer as the full scan of
its members in subset order does.
"""

import random

import pytest

from polyenum import ExplicitFamilyOracle, GraphConnectivityOracle, IdSet
from polyenum.testkit import materialize_components


def supersets_within(n, cm):
    """Every mask over ``[1, n]`` that holds ``cm``."""
    free = ((1 << (n + 1)) - 2) & ~cm
    sub = free
    while True:
        yield cm | sub
        if not sub:
            return
        sub = (sub - 1) & free


def assert_probe_matches_l1(oracle, n):
    answers = set()
    for c in materialize_components(oracle, n):
        cm = c._mask
        for ym in supersets_within(n, cm):
            want = oracle._l1_mask(n, cm, ym) == cm
            assert oracle._maximal_mask(n, cm, ym) == want, (sorted(c), ym)
            answers.add(want)
    return answers


@pytest.mark.parametrize("seed", range(12))
def test_graph_probe_matches_l1_on_every_component(seed):
    rng = random.Random(900 + seed)
    n = rng.randint(3, 9)
    p = rng.choice([0.2, 0.35, 0.6])
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    answers = assert_probe_matches_l1(GraphConnectivityOracle(n, edges), n)
    assert answers == {True, False}


def random_family(rng, n, size, without=0):
    """A shuffled family of ``size`` random draws, none holding ``without``."""
    masks = {rng.getrandbits(n) << 1 & ~without for _ in range(size)}
    masks.discard(0)
    family = [IdSet._from_mask(n, m) for m in masks]
    rng.shuffle(family)
    return ExplicitFamilyOracle(n, family)


@pytest.mark.parametrize("seed", range(12))
def test_explicit_probe_matches_l1_on_every_member(seed):
    rng = random.Random(950 + seed)
    n = rng.randint(3, 8)
    oracle = random_family(rng, n, rng.randint(3, 30))
    assert assert_probe_matches_l1(oracle, n) == {True, False}


def full_scan_l1(oracle, xm, ym):
    """The first member in subset order between ``x`` and ``y``."""
    for m in oracle._masks:
        if not xm & ~m and not m & ~ym:
            return m
    return None


@pytest.mark.parametrize("seed", range(12))
def test_explicit_indexed_l1_matches_full_scan(seed):
    # Element 1 is in no member on every other seed: an x holding it has
    # an empty index entry and must get None.
    rng = random.Random(990 + seed)
    n = rng.randint(3, 7)
    missing = 0b10 * (seed % 2)
    oracle = random_family(rng, n, rng.randint(2, 25), without=missing)
    full = (1 << (n + 1)) - 2
    hits = 0
    for ym in range(2, full + 1, 2):
        for xm in supersets_within(n, 0):
            if not xm or xm & ~ym:
                continue
            want = full_scan_l1(oracle, xm, ym)
            got = oracle._l1_mask(n, xm, ym)
            assert got == want, (xm, ym)
            if xm & missing:
                assert got is None
            hits += want is not None
    assert hits
