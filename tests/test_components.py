"""Components mode: the reduction, and every component listed once.

``ReducedInstance`` makes every component a solution.  Runs are checked
against the materialized family on graphs up to 12 vertices and against
``conftest.connected_set_count`` on forests and cycles past that.
``TestWitnessParity`` holds the graph backend's closed-form child scan
and ``parent`` to the public-only twin on sparse graphs of 13 to 30
vertices, and ``TestGroupBound`` checks that groups that cannot emit are
never asked.
"""

import itertools
import random

import pytest
from conftest import (connected_set_count, once, outcome, public_twin, rendered,
                      union_find_components)

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    Instance,
    OracleStats,
    ReducedInstance,
    SizeAbove,
    Solution,
    enumerate_all,
    enumerate_components,
    enumerate_k,
    is_solution,
    make_solution,
    parent,
)
from polyenum.testkit import RandomSpec, materialize_components, random_instance


def path_oracle(m):
    return GraphConnectivityOracle(m, [(i, i + 1) for i in range(1, m)])


def collect_components(oracle, n, rho=None, stats=None):
    out = []
    enumerate_components(oracle, n, rho=rho, sink=once(out.append), stats=stats)
    return out


def caterpillar(rng, first):
    """A 30-42 vertex path from ``first`` on, then 1-3 leaves hung off it."""
    spine = rng.randint(30, 42)
    edges = [(v, v + 1) for v in range(first, first + spine - 1)]
    leaves = rng.randint(1, 3)
    edges += [(rng.randrange(first, first + spine), first + spine + i) for i in range(leaves)]
    return spine + leaves, edges


def large_graph(kind, seed):
    """A cycle on ``seed`` vertices, a caterpillar or two, randomly relabelled."""
    rng = random.Random(seed)
    if kind == "cycle":
        n, edges = seed, [(v, v % seed + 1) for v in range(1, seed + 1)]
    else:
        n, edges = caterpillar(rng, 1)
        if kind == "forest":
            m, more = caterpillar(rng, n + 1)
            n, edges = n + m, edges + more
    label = rng.sample(range(1, n + 1), n)
    return n, [(label[u - 1], label[v - 1]) for u, v in edges]


def sparse_graph(kind, seed):
    """A tree, caterpillar, cycle or sparse graph on 13-30 vertices, or a star
    on 5-16, randomly relabelled.

    The tree hangs each vertex off one of the two before it; the sparse
    graph is a path with about a fifth of its edges missing and a few
    chords of length 2 or 3, so it has cycles and is seldom connected.
    The star joins one vertex to all others and adds 0-3 chords between
    those, so the centre cuts most connected sets that hold it and is
    often their least vertex.
    """
    rng = random.Random(seed)
    n = rng.randint(13, 30)
    if kind == "star":
        n = rng.randint(5, 16)
        centre = rng.randint(1, n)
        leaves = [v for v in range(1, n + 1) if v != centre]
        edges = [(centre, v) for v in leaves]
        edges += rng.sample(list(itertools.combinations(leaves, 2)), rng.randint(0, 3))
    elif kind == "tree":
        edges = [(v, v - rng.randint(1, min(2, v - 1))) for v in range(2, n + 1)]
    elif kind == "caterpillar":
        spine = n - rng.randint(1, 3)
        edges = [(v, v + 1) for v in range(1, spine)]
        edges += [(rng.randint(1, spine), v) for v in range(spine + 1, n + 1)]
    elif kind == "cycle":
        edges = [(v, v % n + 1) for v in range(1, n + 1)]
    else:
        edges = [(v, v + 1) for v in range(1, n) if rng.random() < 0.8]
        edges += [(v, v + d) for v in range(1, n - 2) for d in (2, 3) if rng.random() < 0.06]
    label = rng.sample(range(1, n + 1), n)
    return n, [(label[u - 1], label[v - 1]) for u, v in edges]


@pytest.fixture
def closed_form(monkeypatch):
    """For every components-mode child scan, whether it took the closed form."""
    took = []

    def recorded(*args, _f=ReducedInstance._children):
        cms = _f(*args)
        took.append(cms is not None)
        return cms

    monkeypatch.setattr(ReducedInstance, "_children", recorded)
    return took


class TestReduction:
    def test_attribute_rows_are_complements(self):
        inst = ReducedInstance(3, path_oracle(3))
        assert inst.q == 3
        assert inst.sigma(1) == IdSet(3, [2, 3])
        assert inst.sigma(2) == IdSet(3, [1, 3])
        assert inst.sigma(3) == IdSet(3, [1, 2])

    def test_single_element_universe(self):
        inst = ReducedInstance(1, GraphConnectivityOracle(1))
        assert inst.sigma(1) == IdSet(1)

    def test_common_items_complement_the_elements(self):
        inst = ReducedInstance(3, path_oracle(3))
        assert inst.common_item_set(IdSet(3, [1, 3])) == IdSet(3, [2])
        with pytest.raises(ContractError):
            inst.common_item_set(IdSet(3))

    def test_slices_complement_the_items(self):
        inst = ReducedInstance(4, path_oracle(4))
        assert inst.elements_with_item(0) == IdSet.full(4)
        assert inst.elements_with_item(2) == IdSet(4, [1, 3, 4])
        assert inst.elements_with_items(IdSet(4, [1, 4])) == IdSet(4, [2, 3])
        assert inst.elements_with_items(IdSet(4)) == IdSet.full(4)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_component_is_a_solution(self, seed):
        base = random_instance(RandomSpec(kind="graph", n_range=(1, 7), seed=60 + seed))
        inst = ReducedInstance(base.n, base.oracle)
        for c in materialize_components(base.oracle, base.n):
            assert is_solution(inst, c)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize(
        "oracle",
        [path_oracle(3), ExplicitFamilyOracle(3, [[1], [1, 2]])],
        ids=["graph", "explicit"],
    )
    def test_backend_for_another_universe_rejected(self, oracle, n):
        sizes = rf"oracle over \[1, 3\] .* over \[1, {n}\]"
        with pytest.raises(ValueError, match=sizes):
            ReducedInstance(n, oracle)
        with pytest.raises(ValueError, match=sizes):
            enumerate_components(oracle, n, sink=lambda s: None)


class TestEnumerateComponents:
    def test_p3_connected_subsets(self):
        got = {tuple(s.elements) for s in collect_components(path_oracle(3), 3)}
        assert got == {(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)}

    @pytest.mark.parametrize("m", range(2, 7))
    def test_path_counts(self, m):
        got = collect_components(path_oracle(m), m)
        assert len(got) == m * (m + 1) // 2
        assert len({s.elements for s in got}) == len(got)

    def test_threshold_keeps_only_the_full_universe(self):
        n = 5
        oracle = path_oracle(n)
        got = collect_components(oracle, n, rho=SizeAbove(n - 1))
        assert [s.elements for s in got] == [IdSet.full(n)]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_materialized_family_on_graphs(self, seed):
        base = random_instance(RandomSpec(kind="graph", n_range=(1, 7), seed=80 + seed))
        got = [s.elements for s in collect_components(base.oracle, base.n)]
        assert len(got) == len(set(got))
        assert set(got) == set(materialize_components(base.oracle, base.n))

    @pytest.mark.parametrize(
        "kind, seed",
        [("cycle", 40), ("cycle", 50)] + [("caterpillar", s) for s in range(6)] + [("forest", 6)],
    )
    def test_counts_match_the_formula_beyond_materializing(self, kind, seed, closed_form):
        """Above ``MATERIALIZE_BOUND`` vertices the count certifies the run."""
        n, edges = large_graph(kind, seed)
        oracle = GraphConnectivityOracle(n, edges)
        stats = OracleStats()
        got = collect_components(oracle, n, stats=stats)
        # Every child scan of the run was answered from the cut vertices.
        assert closed_form and all(closed_form)
        want = connected_set_count(n, edges)
        assert len(got) == stats.outputs == want
        assert len({s.elements for s in got}) == want
        full = IdSet.full(n)
        for s in got:
            assert len(union_find_components(edges, s.elements._mask)) == 1
            assert s.items == full - s.elements

    @pytest.mark.parametrize("seed", range(15))
    def test_reproduces_explicit_families(self, seed):
        base = random_instance(RandomSpec(kind="explicit", seed=120 + seed))
        got = [s.elements for s in collect_components(base.oracle, base.n)]
        assert len(got) == len(set(got))
        assert set(got) == set(base.oracle.family)


class TestWitnessParity:
    """The graph backend's hooks and the public-only default, past 12 vertices.

    Through the graph backend every child scan of a components run is
    answered in closed form from ``_cut_parts`` alone, and the public
    ``parent`` asks the ``_maximal_in`` predicate; through ``PublicOnly``
    over the same graph each of their queries is asked.  Both must give
    the same records and the same counts.
    """

    KINDS = [(kind, seed) for kind in ("tree", "caterpillar", "cycle", "sparse", "star")
             for seed in range(5)]

    @pytest.mark.parametrize("kind, seed", KINDS)
    def test_same_stream_and_counts_as_the_public_only_backend(self, kind, seed, closed_form):
        n, edges = sparse_graph(kind, seed)
        inst = ReducedInstance(n, GraphConnectivityOracle(n, edges))
        fast = rendered(lambda sink, stats: enumerate_all(inst, sink=sink, stats=stats))
        assert closed_form and all(closed_form)
        del closed_form[:]
        twin = public_twin(inst)
        slow = rendered(lambda sink, stats: enumerate_all(twin, sink=sink, stats=stats))
        assert closed_form and not any(closed_form)
        assert fast == slow
        lines = fast[0].splitlines()
        assert len(set(lines)) == len(lines) == fast[1][0]["outputs"]
        if kind not in ("sparse", "star"):  # a forest or a cycle: the count certifies the run
            assert len(lines) == connected_set_count(n, edges)

    @pytest.mark.parametrize("kind, seed", KINDS)
    def test_parent_answers_and_errors_as_the_public_only_backend(self, kind, seed):
        n, edges = sparse_graph(kind, seed)
        g = GraphConnectivityOracle(n, edges)
        inst = ReducedInstance(n, g)
        plain = public_twin(inst)
        # The roots of groups 1-3 have no neighbour in their slice: parent()
        # raises the same error after the same counted queries either way.
        roots = 0
        for k in (1, 2, 3):
            for cm in g._l2_masks(n, inst._slice_mask(k)):
                s = make_solution(inst, IdSet._from_mask(n, cm))
                if s.k == k:
                    roots += 1
                    got = outcome(parent, inst, s)
                    assert "no strict superset solution" in got[0]
                    assert got == outcome(parent, plain, s)
        assert roots
        # Every fifth record of the run, roots included.
        records = []
        enumerate_components(g, n, sink=once(records.append))
        for s in records[::5]:
            assert outcome(parent, inst, s) == outcome(parent, plain, s)


class TestGroupBound:
    def test_isolated_vertices_ask_three_l2(self):
        # Group 0's l2(V) lists the 300 singletons; {1} lacks 2 and the
        # others lack 1, so no group above 2 can emit and none is asked.
        n = 300
        stats = OracleStats()
        got = collect_components(GraphConnectivityOracle(n), n, stats=stats)
        assert {s.elements for s in got} == {IdSet(n, [v]) for v in range(1, n + 1)}
        assert len(got) == stats.outputs == 300
        assert stats.l2_calls == 3

    def test_path_with_every_item_carried_asks_two_l2(self):
        # Solution mode: l2(V) gives V itself, whose common items are 1..n,
        # so no group above 1 can emit and only group 1 is asked.
        n = 50
        inst = Instance(n, n, [range(1, n + 1)] * n, path_oracle(n))
        stats = OracleStats()
        out = []
        enumerate_all(inst, sink=out.append, stats=stats)
        every = IdSet(n, range(1, n + 1))
        assert out == [Solution(every, every, 1)]
        assert stats.l2_calls == 2

    @pytest.mark.parametrize("kind, seed", [("graph", s) for s in range(200, 215)]
                             + [("explicit", s) for s in range(300, 315)])
    def test_skipped_groups_emit_nothing(self, kind, seed):
        base = random_instance(RandomSpec(kind=kind, n_range=(1, 8), seed=seed,
                                          edge_prob=(0.15, 0.3, 0.5)[seed % 3]))
        for mode in ("components", "solutions"):
            inst = public_twin(ReducedInstance(base.n, base.oracle) if mode == "components"
                               else base)
            oracle = inst.oracle
            out, by_group = [], []
            enumerate_all(inst, sink=once(out.append))
            bounded = list(oracle.log)
            collect = once(by_group.append)
            for k in range(inst.q + 1):
                enumerate_k(inst, k, sink=collect)
            every_group = oracle.log[len(bounded):]
            # The bound drops only groups that emit nothing: the stream is
            # the groups' streams in turn, and the queries a prefix of theirs.
            assert out == by_group
            assert every_group[:len(bounded)] == bounded
            if mode == "solutions" and (kind, seed) in {("graph", 207), ("explicit", 314)}:
                assert len(bounded) < len(every_group)
