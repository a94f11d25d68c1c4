"""The maximality probe and the explicit backend's indexed ``l1``.

The enumerator asks ``_maximal_mask(n, c, y)`` wherever it knows ``c`` is
a component, and counts it as one ``l1`` call.  Its contract is
``_l1_mask(n, c, y) == c`` for every component ``c`` and every ``y``
holding it; these tests hold both shipped backends to it over every such
pair on seeded graphs and families, and the graph backend on drawn graphs
too.  The explicit backend's ``l1`` answers from its per-element bitmaps;
it must answer as ``reference_l1`` does.
"""

import pytest
from hypothesis import example, given, settings

from polyenum import ExplicitFamilyOracle, GraphConnectivityOracle, IdSet
from polyenum.testkit import RandomSpec, materialize_components, random_instance

from conftest import (
    BOWTIE,
    STAR,
    DefaultHooksGraph,
    graphs_hulls_and_parts,
    mask,
    reference_l1,
)


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
    """Check the probe on every component and every hull holding it."""
    comps, answers = materialize_components(oracle, n), set()
    for c in comps:
        for ym in supersets_within(n, c._mask):
            want = oracle._l1_mask(n, c._mask, ym) == c._mask
            assert oracle._maximal_mask(n, c._mask, ym) == want, (sorted(c), ym)
            answers.add(want)
    # The probe says no somewhere exactly when some component lies inside another.
    nested = len(comps) > len(oracle._l2_masks(n, (1 << (n + 1)) - 2))
    assert answers == ({True, False} if nested else {True})


def seeded_oracle(kind, seed, max_n):
    spec = RandomSpec(kind, n_range=(3, max_n), max_family=30,
                      edge_prob=(0.2, 0.35, 0.6)[seed % 3], seed=seed)
    return random_instance(spec).oracle


@pytest.mark.parametrize("seed", range(12))
def test_graph_probe_matches_l1_on_every_component(seed):
    oracle = seeded_oracle("graph", 900 + seed, 9)
    assert_probe_matches_l1(oracle, oracle.n)


@pytest.mark.parametrize("seed", range(12))
def test_explicit_probe_matches_l1_on_every_member(seed):
    oracle = seeded_oracle("explicit", 950 + seed, 8)
    assert_probe_matches_l1(oracle, oracle.n)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=graphs_hulls_and_parts())
@example(case=BOWTIE + (mask(*range(1, 9)), mask(3, 6)))
@example(case=STAR + (mask(1, 2, 3, 5), mask(2, 3, 4)))
@example(case=(40, [(i, i + 1) for i in range(1, 40)], mask(*range(1, 41)), mask(20)))
def test_graph_probe_answers_as_the_default(case):
    n, edges, ym, part = case
    g = GraphConnectivityOracle(n, edges)
    plain = DefaultHooksGraph(n, edges)
    full = (1 << (n + 1)) - 2
    for hull in (ym, full):
        if not hull:
            continue
        # Components inside the hull: its maximal ones, and smaller ones.
        seeds = g._l2_masks(n, hull)
        if hull & part:
            seeds += g._l2_masks(n, hull & part)
        for sm in seeds:
            assert g._maximal_mask(n, sm, hull) == plain._maximal_mask(n, sm, hull)


@pytest.mark.parametrize("seed", range(12))
def test_explicit_indexed_l1_matches_full_scan(seed):
    oracle = seeded_oracle("explicit", 990 + seed, 7)
    n = oracle.n
    if seed % 2:
        # Element 1 is in no member: an x holding it has an empty index
        # entry and must get None.
        n += 1
        oracle = ExplicitFamilyOracle(n, [IdSet._from_mask(n, c._mask << 1)
                                          for c in oracle.family])
    hits = 0
    for ym in range(2, 1 << (n + 1), 2):
        y = IdSet._from_mask(n, ym)
        xm = ym
        while xm:
            z = reference_l1(oracle.family, IdSet._from_mask(n, xm), y)
            assert oracle._l1_mask(n, xm, ym) == (None if z is None else z._mask), (xm, ym)
            hits += z is not None
            xm = (xm - 1) & ym
    assert hits
