"""The references in ``polyenum.testkit``: brute force, ``PublicOnly`` and the generators."""

import pytest

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    Instance,
    OracleStats,
    ReducedInstance,
    SetSystemOracle,
    enumerate_all,
    enumerate_components,
    make_solution,
)
from polyenum.cli import parse_instance
from polyenum.testkit import (
    MATERIALIZE_BOUND,
    PublicOnly,
    RandomSpec,
    brute_force_parent,
    brute_force_solutions,
    materialize_components,
    max_interoutput_traversals,
    random_instance,
)

from conftest import P3_JSON, elems, public_twin, rendered


def test_materialize_graph_components():
    p3 = GraphConnectivityOracle(3, [(1, 2), (2, 3)])
    got = {tuple(c) for c in materialize_components(p3, 3)}
    assert got == {(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)}


def test_materialize_refuses_large_graphs():
    n = MATERIALIZE_BOUND + 1
    with pytest.raises(ContractError):
        materialize_components(GraphConnectivityOracle(n), n)


def test_materialize_unknown_backend_rejected():
    class Strange:
        pass

    with pytest.raises(ContractError):
        materialize_components(Strange(), 3)


def test_brute_force_solutions_p3(p3):
    got = {tuple(s.elements) for s in brute_force_solutions(p3)}
    assert got == {(2,), (1, 2), (2, 3), (1, 2, 3)}


def test_brute_force_solutions_single_component():
    oracle = ExplicitFamilyOracle(2, [[1, 2]])
    inst = Instance(2, 2, [[1], [2]], oracle)
    got = brute_force_solutions(inst)
    assert [tuple(s.elements) for s in got] == [(1, 2)]


def test_brute_force_solutions_on_reduction_yields_the_family(p3):
    inst = ReducedInstance(3, p3.oracle)
    got = {s.elements for s in brute_force_solutions(inst)}
    assert got == set(materialize_components(p3.oracle, 3))


def test_brute_force_parent_p3(p3):
    s = make_solution(p3, elems(p3, 2))
    assert brute_force_parent(p3, s).elements == elems(p3, 1, 2)


def test_brute_force_parent_rejects_roots(p3):
    base = make_solution(p3, elems(p3, 1, 2))
    with pytest.raises(ContractError):
        brute_force_parent(p3, base)


def test_max_interoutput_traversals_conventions():
    st = OracleStats()
    assert st.max_interoutput_traversals == max_interoutput_traversals(st) == 0
    st.traversal_calls = 5  # descents before the first output open no window
    st.record_output()
    assert st.max_interoutput_traversals == max_interoutput_traversals(st) == 0
    st.traversal_calls = 7
    st.record_output()
    st.traversal_calls = 8
    st.record_output()
    assert st.max_interoutput_traversals == max_interoutput_traversals(st) == 2


class TestPublicOnly:
    def test_every_mask_hook_is_the_default(self):
        for hook in ("_l1_mask", "_l2_masks", "_maximal_in", "_l1_growth", "_cut_parts"):
            assert getattr(PublicOnly, hook) is getattr(SetSystemOracle, hook)
        assert not hasattr(PublicOnly(GraphConnectivityOracle(3)), "n")

    def test_logs_each_query_in_order_and_forwards_the_answers(self, p3):
        g, logged = p3.oracle, PublicOnly(p3.oracle)
        x, y, ends = elems(p3, 2), elems(p3, 1, 2, 3), elems(p3, 1, 3)
        assert logged.l2(y) == g.l2(y)
        assert logged.l1(x, y) == g.l1(x, y) == y
        assert logged.l1(ends, ends) is g.l1(ends, ends) is None
        assert logged.delta_hint() == g.delta_hint()
        assert logged.log == [("l2", 0b1110), ("l1", 0b100, 0b1110), ("l1", 0b1010, 0b1010)]

    def test_enumeration_through_it_matches_the_inner_backend(self):
        """The p3 document, through ``enumerate_all`` and the public ``enumerate_components``."""
        inst = parse_instance(P3_JSON)
        assert rendered(lambda sink, st: enumerate_all(public_twin(inst), sink=sink, stats=st)) == (
            rendered(lambda sink, st: enumerate_all(inst, sink=sink, stats=st)))
        logged = PublicOnly(inst.oracle)
        assert rendered(lambda sink, st: enumerate_components(logged, 3, sink=sink, stats=st)) == (
            rendered(lambda sink, st: enumerate_components(inst.oracle, 3, sink=sink, stats=st)))


class TestGenerators:
    def test_same_seed_same_instance(self):
        a = random_instance(RandomSpec(kind="graph", seed=4))
        b = random_instance(RandomSpec(kind="graph", seed=4))
        assert (a.n, a.q) == (b.n, b.q)
        assert [list(a.sigma(v)) for v in range(1, a.n + 1)] == [
            list(b.sigma(v)) for v in range(1, b.n + 1)
        ]
        assert a.oracle.adjacency == b.oracle.adjacency

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            random_instance(RandomSpec(kind="nonsense"))

    @pytest.mark.parametrize("seed", range(20))
    def test_explicit_families_are_valid(self, seed):
        inst = random_instance(RandomSpec(kind="explicit", seed=seed))
        family = inst.oracle.family
        assert 1 <= len(family) <= 20
        assert len(set(family)) == len(family)
        for c in family:
            assert c
            assert all(1 <= v <= inst.n for v in c)
        for v in range(1, inst.n + 1):
            assert all(1 <= i <= inst.q for i in inst.sigma(v))

    @pytest.mark.parametrize("seed", range(20))
    def test_graphs_are_simple_and_symmetric(self, seed):
        inst = random_instance(RandomSpec(kind="graph", seed=seed))
        adj = inst.oracle.adjacency
        for v, nbrs in adj.items():
            assert v not in nbrs
            assert len(set(nbrs)) == len(nbrs)
            for u in nbrs:
                assert v in adj[u]
