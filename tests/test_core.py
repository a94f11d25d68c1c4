"""``IdSet``, the subset order and the instance's attribute algebra.

The algebra's memory and build time must not follow the declared item
count, and its queries must be antitone and adjoint on random instances.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    IdSet,
    Instance,
    GraphConnectivityOracle,
    OracleStats,
    ReducedInstance,
    enumerate_all,
    subset_lex_leq,
    subset_lex_less,
)
from polyenum.core import lex_sort_key
from polyenum.testkit import RandomSpec, random_instance

from conftest import P3_SIGMA, elems, items, reference_algebra


def all_subsets(universe):
    out = []
    for r in range(len(universe) + 1):
        out.extend(IdSet(max(universe), c) for c in itertools.combinations(universe, r))
    return out


class TestIdSet:
    def test_construction_and_iteration(self):
        s = IdSet(5, [4, 1, 3])
        assert list(s) == [1, 3, 4]
        assert len(s) == 3
        assert 3 in s and 2 not in s and 0 not in s and 9 not in s

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IdSet(3, [4])
        with pytest.raises(ValueError):
            IdSet(3, [0])
        with pytest.raises(ValueError, match=r"^capacity must be non-negative, got -1$"):
            IdSet(-1)

    def test_algebra(self):
        a = IdSet(5, [1, 2, 4])
        b = IdSet(5, [2, 3])
        assert list(a | b) == [1, 2, 3, 4]
        assert list(a & b) == [2]
        assert list(a - b) == [1, 4]

    def test_subset_relations(self):
        a = IdSet(4, [1, 2])
        assert a <= IdSet(4, [1, 2, 3])
        assert a < IdSet(4, [1, 2, 3])
        assert not a < a
        assert a <= a

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IdSet(3, [1]) | IdSet(4, [1])
        assert IdSet(3, [1]) != IdSet(4, [1])

    def test_full_empty_min(self):
        assert list(IdSet.full(4)) == [1, 2, 3, 4]
        assert not IdSet(4)
        assert IdSet(4).min_id() == 0
        assert IdSet(4, [3, 2]).min_id() == 2


def test_min_id_examples():
    assert IdSet(9, [3, 5]).min_id() == 3
    assert IdSet(9).min_id() == 0
    assert IdSet.full(9).min_id() == 1


def test_subset_lex_less_examples():
    u = 3
    assert subset_lex_less(IdSet(u, [1, 3]), IdSet(u, [2, 3]))
    assert subset_lex_less(IdSet(u, [1, 2]), IdSet(u, [1]))
    assert not subset_lex_less(IdSet(u, [1, 2]), IdSet(u, [1, 2]))
    assert subset_lex_leq(IdSet(u, [1, 2]), IdSet(u, [1, 2]))


def test_lex_order_is_strict_total_order_on_5_universe():
    subsets = all_subsets([1, 2, 3, 4, 5])
    for a, b in itertools.product(subsets, repeat=2):
        holds = (subset_lex_less(a, b), subset_lex_less(b, a), a == b)
        assert sum(holds) == 1, (list(a), list(b))
    rng = random.Random(7)
    for _ in range(3000):
        a, b, c = rng.sample(subsets, 3)
        if subset_lex_less(a, b) and subset_lex_less(b, c):
            assert subset_lex_less(a, c)


def test_superset_precedes_subset_on_5_universe():
    subsets = all_subsets([1, 2, 3, 4, 5])
    for a, b in itertools.product(subsets, repeat=2):
        if a.issuperset(b):
            assert subset_lex_leq(a, b)
            assert not subset_lex_less(b, a) or b == a
            assert a == b or subset_lex_less(a, b)


def test_lex_sort_key_matches_comparator():
    subsets = all_subsets([1, 2, 3, 4])
    by_key = sorted(subsets, key=lex_sort_key)
    for a, b in zip(by_key, by_key[1:]):
        assert subset_lex_less(a, b)


def lex_sort_key_by_loop(s):
    """The key built one member at a time: member ``i`` weighs ``2**(capacity - i)``."""
    rev = 0
    for i in s:
        rev |= 1 << (s.capacity - i)
    return -rev


@settings(derandomize=True, database=None, max_examples=300)
@given(capacity=st.integers(0, 200), data=st.data())
def test_lex_sort_key_from_the_mask_matches_the_loop(capacity, data):
    m = data.draw(st.integers(0, (1 << capacity) - 1)) << 1 if capacity else 0
    s = IdSet._from_mask(capacity, m)
    assert lex_sort_key(s) == lex_sort_key_by_loop(s)


class TestInstanceQueries:
    def test_common_item_set_examples(self, p3):
        assert p3.common_item_set(elems(p3, 2)) == items(p3, 1, 2)
        assert p3.common_item_set(elems(p3, 1, 2, 3)) == items(p3)
        for v in (1, 2, 3):
            assert p3.common_item_set(elems(p3, v)) == p3.sigma(v)

    @pytest.mark.parametrize("v", [0, 4])
    def test_sigma_rejects_an_element_outside_the_universe(self, p3, v):
        with pytest.raises(ValueError, match=rf"^element {v} outside \[1, 3\]$"):
            p3.sigma(v)

    def test_common_item_set_rejects_empty(self, p3):
        with pytest.raises(ContractError):
            p3.common_item_set(elems(p3))

    def test_elements_with_items_examples(self, p3):
        assert p3.elements_with_items(items(p3, 1)) == elems(p3, 1, 2)
        assert p3.elements_with_items(items(p3, 1, 2)) == elems(p3, 2)
        assert p3.elements_with_items(items(p3)) == IdSet.full(p3.n)
        with pytest.raises(ValueError, match=r"^item set from a different universe$"):
            p3.elements_with_items(IdSet(p3.q + 1, [1]))

    def test_elements_with_item_sentinel(self, p3):
        assert p3.elements_with_item(0) == IdSet.full(p3.n)
        assert p3.elements_with_item(2) == elems(p3, 2, 3)
        with pytest.raises(ValueError):
            p3.elements_with_item(3)

    def test_validation(self):
        oracle = GraphConnectivityOracle(2, [(1, 2)])
        with pytest.raises(ValueError):
            Instance(0, 1, [], oracle)
        with pytest.raises(ValueError):
            Instance(2, 0, [[], []], oracle)
        with pytest.raises(ValueError):
            Instance(2, 2, [[1]], oracle)
        with pytest.raises(ValueError):
            Instance(2, 2, [[1], [3]], oracle)

    def test_repeated_item_in_a_row_rejected(self):
        oracle = GraphConnectivityOracle(3, [(1, 2)])
        with pytest.raises(ValueError, match=r"sigma\[1\]: repeated item 2"):
            Instance(3, 2, [[1], [2, 1, 2], []], oracle)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize(
        "oracle",
        [GraphConnectivityOracle(3, [(1, 2), (2, 3)]), ExplicitFamilyOracle(3, [[1], [1, 2]])],
        ids=["graph", "explicit"],
    )
    def test_backend_for_another_universe_rejected(self, oracle, n):
        with pytest.raises(ValueError, match=rf"oracle over \[1, 3\] .* over \[1, {n}\]"):
            Instance(n, 1, [[1]] * n, oracle)


class RowLog(list):
    """The rows of ``Instance._sigma_masks``, logging each one read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, v):
        self.read.append(v)
        return super().__getitem__(v)


class TestCommonMask:
    """``Instance._common_mask`` walks the elements' rows."""

    SIGMA = [[1, 3], [], [1, 2, 3], [3], [1, 3, 4]]  # item 3 held by all but 2

    def inst(self, sigma=SIGMA, q=4):
        return Instance(len(sigma), q, sigma, GraphConnectivityOracle(len(sigma)))

    def test_singleton_gives_its_row(self):
        inst = self.inst()
        for v in range(1, 6):
            assert inst._common_mask(1 << v) == inst._sigma_mask(v)

    def test_lowest_element_without_items_gives_0_after_one_row(self):
        inst = self.inst()
        inst._sigma_masks = RowLog(inst._sigma_masks)
        assert inst._common_mask(0b111100) == 0  # elements 2, 3, 4, 5
        assert inst._sigma_masks.read == [2]

    def test_full_universe(self):
        inst = self.inst()
        assert inst._common_mask((1 << 6) - 2) == 0
        without_2 = self.inst([row for row in self.SIGMA if row])
        assert without_2._common_mask((1 << 5) - 2) == 1 << 3

    def test_item_held_by_every_element(self):
        sigma = [[2, 4], [1, 2], [2, 3, 4], [2]]
        inst = self.inst(sigma)
        common = reference_algebra(sigma, 4, 4)[0]
        for xm in range(2, 1 << 5, 2):
            got = inst._common_mask(xm)
            assert got == common(IdSet._from_mask(4, xm))._mask
            assert got >> 2 & 1

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_the_slice_definition(self, seed):
        inst = random_instance(RandomSpec("graph", n_range=(1, 6), q_range=(1, 5), seed=seed))
        rows = [list(inst.sigma(v)) for v in range(1, inst.n + 1)]
        common = reference_algebra(rows, inst.n, inst.q)[0]
        for xm in range(2, 1 << (inst.n + 1), 2):
            assert inst._common_mask(xm) == common(IdSet._from_mask(inst.n, xm))._mask

    def test_memory_does_not_follow_the_declared_item_count(self):
        inst = Instance(3, 10**6, P3_SIGMA, GraphConnectivityOracle(3))
        tracemalloc.start()
        try:
            assert inst._common_mask(0b110) == 0b10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024, peak

    def test_an_item_count_past_any_table_builds(self, p3):
        # Items 3..q are carried by no element, so they take no table.
        runs = []
        for q in (3, 2**62):
            inst, stats, out = Instance(3, q, P3_SIGMA, p3.oracle), OracleStats(), []
            enumerate_all(inst, sink=out.append, stats=stats)
            runs.append(([(list(s.elements), list(s.items), s.k) for s in out], stats.as_dict()))
        assert runs[0] == runs[1] and runs[0][0]
        assert inst._slice_mask(2**62) == inst._hull_mask(1 << 2**20 | 0b10) == 0

    def test_building_does_not_follow_the_declared_item_count(self):
        oracle = GraphConnectivityOracle(3)
        tracemalloc.start()
        try:
            Instance(3, 10**6, P3_SIGMA, oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, peak

    def test_reduced_instance_keeps_the_complement(self):
        red = ReducedInstance(5, GraphConnectivityOracle(5))
        full = (1 << 6) - 2
        for xm in range(2, 1 << 6, 2):
            assert red._common_mask(xm) == full & ~xm


@pytest.mark.parametrize("seed", range(25))
def test_attribute_queries_are_antitone_and_adjoint(seed):
    inst = random_instance(RandomSpec("graph", n_range=(1, 6), q_range=(1, 5), seed=seed))
    rng = random.Random(seed)
    for _ in range(20):
        jm = rng.getrandbits(inst.q) << 1
        jm2 = jm | (rng.getrandbits(inst.q) << 1)
        j = IdSet._from_mask(inst.q, jm)
        j2 = IdSet._from_mask(inst.q, jm2)
        assert inst.elements_with_items(j2) <= inst.elements_with_items(j)

        xm = rng.getrandbits(inst.n) << 1
        xm2 = xm | (rng.getrandbits(inst.n) << 1)
        if xm:
            x = IdSet._from_mask(inst.n, xm)
            x2 = IdSet._from_mask(inst.n, xm2)
            assert inst.common_item_set(x2) <= inst.common_item_set(x)
            # adjointness: x inside the j-slice iff j inside x's common items
            assert (x <= inst.elements_with_items(j)) == (
                j <= inst.common_item_set(x)
            )


def test_oracle_stats_counters():
    st = OracleStats()
    st.l1_calls += 2
    st.record_output()
    st.l2_calls += 1
    st.traversal_calls += 3
    st.record_output()
    assert st.outputs == 2
    assert st.max_interoutput_traversals == 3
    # --stats prints these lines in this order
    assert list(st.as_dict().items()) == [
        ("l1_calls", 2),
        ("l2_calls", 1),
        ("rho_calls", 0),
        ("traversal_calls", 3),
        ("outputs", 2),
        ("max_interoutput_traversals", 3),
    ]
