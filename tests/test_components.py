import random

import pytest
from conftest import connected_set_count, union_find_components

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    OracleStats,
    ReducedInstance,
    SizeAbove,
    enumerate_components,
    is_solution,
)
from polyenum.testkit import RandomSpec, materialize_components, random_instance


def path_oracle(m):
    return GraphConnectivityOracle(m, [(i, i + 1) for i in range(1, m)])


def collect_components(oracle, n, rho=None, stats=None):
    out = []
    enumerate_components(oracle, n, rho=rho, sink=out.append, stats=stats)
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
    def test_counts_match_the_formula_beyond_materializing(self, kind, seed):
        """Above ``MATERIALIZE_BOUND`` vertices the count certifies the run."""
        n, edges = large_graph(kind, seed)
        oracle = GraphConnectivityOracle(n, edges)
        stats = OracleStats()
        got = collect_components(oracle, n, stats=stats)
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
