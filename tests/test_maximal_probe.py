"""The maximality predicate and the explicit backend's indexed ``l1``.

The parent test ``_Run._parent`` asks ``_maximal_in(n, c)`` once per
call for the predicate ``y`` to whether ``c`` is maximal within ``y``,
and calls it on a child-scan candidate's solution test and on every
trial hull of the item pass, all inside the slice of the group's item;
each call counts as one ``l1``.  The default asks
``_l1_mask(n, c, y) == c`` per call; the graph backend's predicate is
one AND against ``c``'s neighbours.  The closed-form child scan of
components mode builds no predicate and runs no parent test.  These
tests hold both shipped backends' predicates to the ``l1`` answer over
every component and every hull holding it on seeded graphs and
families, and the graph backend's to the default on drawn graphs too,
along whole item passes, which it answers without one ``_l1_mask``
query.  Count tests check that the generic scan builds one predicate
per child test, that the closed form builds none, and that no candidate
gets a second.  The explicit backend's ``l1`` answers from its
per-element bitmaps; it must answer as ``reference_l1`` does.
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
    drawn_components,
    graphs_hulls_and_parts,
    mask,
    once,
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
        maximal_in = oracle._maximal_in(n, c._mask)
        for ym in supersets_within(n, c._mask):
            want = oracle._l1_mask(n, c._mask, ym) == c._mask
            assert maximal_in(ym) == want, (sorted(c), ym)
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
    n, edges = case[:2]
    g = GraphConnectivityOracle(n, edges)
    plain = PublicOnly(GraphConnectivityOracle(n, edges))
    for hull, sm in drawn_components(*case):
        assert g._maximal_in(n, sm)(hull) == plain._maximal_in(n, sm)(hull)


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
    g = CountingGraph(n, edges)
    plain = PublicOnly(GraphConnectivityOracle(n, edges))
    full = (1 << (n + 1)) - 2
    for hull in (ym, full):
        if not hull & part:
            continue
        for sm in g._l2_masks(n, hull & part):
            # One predicate each, asked along the chain of trial hulls the
            # parent test's item pass walks: each trial keeps sm, and the
            # hull narrows to it when sm is not maximal.
            fast, slow = g._maximal_in(n, sm), plain._maximal_in(n, sm)
            assert fast(hull) == slow(hull)
            y = hull
            for s in slices:
                trial = y & (s | sm)
                want = slow(trial)
                assert fast(trial) == want, (sm, hull, trial)
                if not want:
                    y = trial
    # The graph predicate takes sm's neighbours once, when it is built:
    # the whole pass asks no _l1_mask query.
    assert g.l1_answers == 0


class CountingGraph(GraphConnectivityOracle):
    """The graph backend, listing the component of each predicate it builds.

    ``l1_answers`` counts the ``_l1_mask`` queries it answers.
    """

    def __init__(self, n, edges):
        super().__init__(n, edges)
        self.built, self.l1_answers = [], 0

    def _maximal_in(self, n, cm):
        self.built.append(cm)
        return super()._maximal_in(n, cm)

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
    enumerate_components(g, 20, sink=once(lambda s: None), stats=stats)
    # The closed-form scan runs no parent test and builds no predicate, so
    # each counted l1 stands for an answer no query was asked for.
    assert calls["_parent"] == g.l1_answers == 0
    assert g.built == []
    # The generic scan runs one parent test, with one predicate, per
    # candidate that passes the j filter; the closed form counts the same.
    generic = GenericScanGraph(20, edges)
    generic_stats = OracleStats()
    enumerate_components(generic, 20, sink=once(lambda s: None), stats=generic_stats)
    assert generic_stats.as_dict() == stats.as_dict()
    assert len(generic.built) == calls["_parent"] > 0


GRAPH_SPECS = [s for s in ACCEPTANCE_SPECS if s.kind == "graph"]


def predicates_built(spec):
    """Each solution of ``spec`` with the components its ``children`` call builds predicates for."""
    inst = random_instance(spec)
    n = inst.n
    edges = [(u, v) for u, nbrs in inst.oracle.adjacency.items() for v in nbrs if u < v]
    g = CountingGraph(n, edges)
    counting = Instance(n, inst.q, [list(inst.sigma(v)) for v in range(1, n + 1)], g)
    for t in brute_force_solutions(inst):
        g.built = []
        children(counting, t)
        yield t, g.built


@pytest.mark.parametrize("spec", GRAPH_SPECS, ids=lambda s: f"graph{s.seed}")
def test_children_build_one_factory_per_candidate(spec):
    # Each candidate's child test is one _parent call, which builds one
    # predicate for it: no candidate gets two.
    for t, built in predicates_built(spec):
        assert len(built) == len(set(built)), (t, built)


def test_the_graph_specs_build_predicates():
    # 56 of the specs build no predicate, but together they build 150:
    # the check above is not vacuous on all of them.
    assert sum(len(built) for spec in GRAPH_SPECS for _, built in predicates_built(spec)) > 0


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
