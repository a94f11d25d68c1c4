"""The maximality witness and the explicit backend's indexed ``l1``.

The parent test ``_Run._parent`` asks ``_neighbours(n, c, y0)`` once per
call, always with ``y0`` the slice of the group's item.  From the
witness ``w`` it answers a child-scan candidate's solution test and every
trial hull of the item pass with ``not w & y``, and asks
``_l1_mask(n, c, y) == c`` instead when the backend gives no witness;
each answer counts as one ``l1``.  The closed-form child scan of
components mode asks neither a witness nor a parent test.  These tests
hold both shipped backends, through ``conftest.maximal_in``, to the
``l1`` answer over every component and every hull holding it on seeded
graphs and families, and the graph backend on drawn graphs too, along
whole item passes.  Count tests check that the generic scan asks one
witness per candidate, that the closed form asks none, and that no
candidate gets a second.  The explicit backend's ``l1`` answers from
its per-element bitmaps; it must answer as ``reference_l1`` does.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyenum import (
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    Instance,
    OracleStats,
    children,
    enumerate_components,
)
from polyenum.enumerator import _Run
from polyenum.testkit import (
    PublicOnly,
    RandomSpec,
    brute_force_solutions,
    materialize_components,
    random_instance,
)

from conftest import (
    ACCEPTANCE_SPECS,
    BOWTIE,
    STAR,
    graphs_hulls_and_parts,
    mask,
    maximal_in,
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
            assert maximal_in(oracle, n, c._mask, ym)(ym) == want, (sorted(c), ym)
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
    plain = PublicOnly(GraphConnectivityOracle(n, edges))
    full = (1 << (n + 1)) - 2
    for hull in (ym, full):
        if not hull:
            continue
        # Components inside the hull: its maximal ones, and smaller ones.
        seeds = g._l2_masks(n, hull)
        if hull & part:
            seeds += g._l2_masks(n, hull & part)
        for sm in seeds:
            assert maximal_in(g, n, sm, hull)(hull) == maximal_in(plain, n, sm, hull)(hull)


@st.composite
def item_passes(draw):
    """``graphs_hulls_and_parts`` plus the slices an item pass narrows a hull by."""
    n, edges, ym, part = draw(graphs_hulls_and_parts())
    slices = st.integers(0, (1 << n) - 1).map(lambda m: m << 1)
    return n, edges, ym, part, draw(st.lists(slices, max_size=8))


PATH40 = (40, [(i, i + 1) for i in range(1, 40)])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=item_passes())
# The arc 10..20 of a path: without 9 and 21 it is maximal, with 21 back it is not.
@example(case=PATH40 + (mask(*range(1, 41)), mask(*range(10, 21)),
                        [mask(*range(1, 41)) & ~mask(9, 21), mask(*range(1, 41)) & ~mask(9),
                         mask(*range(1, 41)) & ~mask(9, 21)]))
def test_graph_factory_answers_an_item_pass_as_the_default(case):
    n, edges, ym, part, slices = case
    g = GraphConnectivityOracle(n, edges)
    plain = PublicOnly(GraphConnectivityOracle(n, edges))
    full = (1 << (n + 1)) - 2
    for hull in (ym, full):
        if not hull & part:
            continue
        for sm in g._l2_masks(n, hull & part):
            # One witness each, taken on the hull, asked along the chain of
            # trial hulls the parent test's item pass walks: each trial
            # keeps sm, and the hull narrows to it when sm is not maximal.
            fast, slow = maximal_in(g, n, sm, hull), maximal_in(plain, n, sm, hull)
            assert fast(hull) == slow(hull)
            y = hull
            for s in slices:
                trial = y & (s | sm)
                want = slow(trial)
                assert fast(trial) == want, (sm, hull, trial)
                if not want:
                    y = trial


class CountingGraph(GraphConnectivityOracle):
    """The graph backend, listing the component of each witness it gives.

    ``l1_answers`` counts the ``_l1_mask`` queries it answers.
    """

    def __init__(self, n, edges):
        super().__init__(n, edges)
        self.built, self.l1_answers = [], 0

    def _neighbours(self, n, cm, ym):
        self.built.append(cm)
        return super()._neighbours(n, cm, ym)

    def _l1_mask(self, n, xm, ym):
        self.l1_answers += 1
        return super()._l1_mask(n, xm, ym)


class GenericScanGraph(CountingGraph):
    """The counting graph backend without cut parts: the generic child scan."""

    def _cut_parts(self, n, tm):
        return None


def test_components_of_a_20_cycle_build_one_factory_per_solution(monkeypatch):
    calls = {"_parent": 0}

    def counted(*args, _f=_Run._parent):
        calls["_parent"] += 1
        return _f(*args)

    monkeypatch.setattr(_Run, "_parent", counted)
    edges = [(v, v % 20 + 1) for v in range(1, 21)]
    g = CountingGraph(20, edges)
    stats = OracleStats()
    enumerate_components(g, 20, stats=stats)
    # The --stats counts tests/test_order_guard.py pins for this cycle.
    assert {k: stats.as_dict()[k] for k in ("l1_calls", "l2_calls", "rho_calls",
                                            "traversal_calls")} == {
        "l1_calls": 10923, "l2_calls": 2472, "rho_calls": 381, "traversal_calls": 379}
    # The closed-form scan runs no parent test and asks no witness, so
    # each counted l1 stands for an answer no query was asked for.
    assert calls["_parent"] == g.l1_answers == 0
    assert g.built == []
    # The generic scan runs one parent test, with one witness, per
    # candidate that passes the j filter; the closed form counts the same.
    generic = GenericScanGraph(20, edges)
    generic_stats = OracleStats()
    enumerate_components(generic, 20, stats=generic_stats)
    assert generic_stats.as_dict() == stats.as_dict()
    assert len(generic.built) == calls["_parent"] > 0


@pytest.mark.parametrize(
    "spec", [s for s in ACCEPTANCE_SPECS if s.kind == "graph"], ids=lambda s: f"graph{s.seed}"
)
def test_children_build_one_factory_per_candidate(spec):
    # Each candidate's child test is one _parent call, which asks one
    # witness for it: no candidate gets two.
    inst = random_instance(spec)
    n = inst.n
    edges = [(u, v) for u, nbrs in inst.oracle.adjacency.items() for v in nbrs if u < v]
    g = CountingGraph(n, edges)
    counting = Instance(n, inst.q, [list(inst.sigma(v)) for v in range(1, n + 1)], g)
    for t in brute_force_solutions(inst):
        g.built = []
        children(counting, t)
        assert len(g.built) == len(set(g.built)), (t, g.built)


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
