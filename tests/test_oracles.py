import itertools
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    Instance,
    OracleStats,
    enumerate_all,
    enumerate_components,
    subset_lex_less,
)
from polyenum.testkit import RandomSpec, materialize_components, random_instance

from conftest import (
    families_and_queries,
    graphs_and_hulls,
    maximal_in,
    reference_l1,
    reference_l2,
    union_find_components,
)


def iset(n, *ids):
    return IdSet(n, ids)


class TestExplicitFamily:
    def test_l1_examples(self):
        oracle = ExplicitFamilyOracle(3, [[1], [1, 2], [3]])
        assert oracle.l1(iset(3, 1), iset(3, 1, 2, 3)) == iset(3, 1, 2)
        assert oracle.l1(iset(3, 2), iset(3, 2)) is None

    def test_l1_whole_query_is_member(self):
        oracle = ExplicitFamilyOracle(4, [[1, 2, 4], [1]])
        y = iset(4, 1, 2, 4)
        assert oracle.l1(y, y) == y

    def test_l1_contract_errors(self):
        oracle = ExplicitFamilyOracle(3, [[1]])
        with pytest.raises(ContractError):
            oracle.l1(iset(3), iset(3, 1))
        with pytest.raises(ContractError):
            oracle.l1(iset(3, 2), iset(3, 1))

    def test_l2_examples(self):
        oracle = ExplicitFamilyOracle(3, [[1], [1, 2], [3]])
        assert oracle.l2(iset(3, 1, 2, 3)) == [iset(3, 1, 2), iset(3, 3)]
        assert oracle.l2(iset(3, 2)) == []
        solo = ExplicitFamilyOracle(3, [[2, 3]])
        assert solo.l2(iset(3, 2, 3)) == [iset(3, 2, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitFamilyOracle(3, [[1], [1]])
        with pytest.raises(ValueError):
            ExplicitFamilyOracle(3, [[]])
        with pytest.raises(ValueError):
            ExplicitFamilyOracle(3, [[4]])
        with pytest.raises(ValueError, match=r"^family\[1\]: id 5 outside \[1, 3\]$"):
            ExplicitFamilyOracle(3, [[1], [1, 5]])
        with pytest.raises(ValueError, match=r"^need at least one element$"):
            ExplicitFamilyOracle(0, [])

    def test_repeated_element_in_a_member_rejected(self):
        with pytest.raises(ValueError, match=r"family\[1\]: repeated element"):
            ExplicitFamilyOracle(3, [[1], [2, 3, 2]])

    def test_delta_hint(self):
        assert ExplicitFamilyOracle(3, [[1], [2]]).delta_hint() == 2

    def test_empty_family_has_no_components(self):
        oracle = ExplicitFamilyOracle(3, [])
        assert oracle.l1(iset(3, 1), iset(3, 1, 2, 3)) is None
        assert oracle.l2(iset(3, 1, 2, 3)) == []
        got = []
        enumerate_all(Instance(3, 2, [[1], [1, 2], [2]], oracle), sink=got.append)
        enumerate_components(oracle, 3, sink=got.append)
        assert got == []

    def test_member_over_another_universe_rejected(self):
        with pytest.raises(ValueError, match=r"^family\[1\]: universe size 4 != 3$"):
            ExplicitFamilyOracle(3, [iset(3, 1), iset(4, 2)])


class TestGraphConnectivity:
    def test_l1_examples(self):
        p3 = GraphConnectivityOracle(3, [(1, 2), (2, 3)])
        assert p3.l1(iset(3, 2), iset(3, 1, 2, 3)) == iset(3, 1, 2, 3)
        assert p3.l1(iset(3, 1, 3), iset(3, 1, 3)) is None
        for v in (1, 2, 3):
            assert p3.l1(iset(3, v), iset(3, v)) == iset(3, v)

    def test_l2_examples(self):
        p3 = GraphConnectivityOracle(3, [(1, 2), (2, 3)])
        assert p3.l2(iset(3, 1, 3)) == [iset(3, 1), iset(3, 3)]
        assert p3.l2(iset(3, 1, 2, 3)) == [iset(3, 1, 2, 3)]
        assert p3.l2(iset(3)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphConnectivityOracle(3, [(1, 1)])
        with pytest.raises(ValueError):
            GraphConnectivityOracle(3, [(1, 4)])
        with pytest.raises(ValueError):
            GraphConnectivityOracle(0)
        with pytest.raises(ValueError, match=r"^edges\[1\]: expected two endpoints, got 3$"):
            GraphConnectivityOracle(3, [(1, 2), (1, 2, 3)])

    @pytest.mark.parametrize("again", [(1, 2), (2, 1)])
    def test_duplicate_edge_rejected(self, again):
        with pytest.raises(ValueError, match=r"edges\[2\]: duplicate edge"):
            GraphConnectivityOracle(3, [(1, 2), (2, 3), again])

    def test_adjacency_view_is_sorted_and_symmetric(self):
        g = GraphConnectivityOracle(4, [(3, 1), (2, 3)])
        adj = g.adjacency
        assert adj[3] == (1, 2)
        assert adj[1] == (3,)
        assert adj[4] == ()
        for v, nbrs in adj.items():
            for u in nbrs:
                assert v in adj[u]

    def test_delta_hint(self):
        assert GraphConnectivityOracle(5).delta_hint() == 5


@pytest.mark.parametrize("seed", range(30))
def test_explicit_answers_are_consistent(seed):
    rng = random.Random(1000 + seed)
    oracle = random_instance(RandomSpec("explicit", seed=seed)).oracle
    n = oracle.n
    for _ in range(30):
        ym = rng.getrandbits(n) << 1
        y = IdSet._from_mask(n, ym)
        maximal = oracle.l2(y)
        assert len(set(maximal)) == len(maximal)
        for a, b in zip(maximal, maximal[1:]):
            assert subset_lex_less(a, b)
        for c in maximal:
            assert c <= y
            assert not any(c < d <= y for d in oracle.family)
        if ym:
            xm = ym & (rng.getrandbits(n) << 1)
            if not xm:
                continue
            x = IdSet._from_mask(n, xm)
            z = oracle.l1(x, y)
            if z is None:
                assert not any(x <= c <= y for c in oracle.family)
            else:
                assert x <= z
                assert z in maximal


@pytest.mark.parametrize("seed", range(12))
def test_graph_l2_partitions_query(seed):
    rng = random.Random(seed)
    g = random_instance(RandomSpec("graph", n_range=(1, 8), seed=seed)).oracle
    n = g.n
    for _ in range(30):
        y = IdSet._from_mask(n, rng.getrandbits(n) << 1)
        comps = g.l2(y)
        union = IdSet(n)
        total = 0
        for c in comps:
            assert c <= y
            union = union | c
            total += len(c)
        assert union == y
        assert total == len(y)


@pytest.mark.parametrize("seed", range(8))
def test_explicit_family_of_connected_sets_matches_graph_oracle(seed):
    spec = RandomSpec("graph", n_range=(1, 6), edge_prob=0.5, seed=40 + seed)
    graph = random_instance(spec).oracle
    n = graph.n
    explicit = ExplicitFamilyOracle(n, materialize_components(graph, n))
    universe = list(range(1, n + 1))
    for r in range(n + 1):
        for ys in itertools.combinations(universe, r):
            y = IdSet(n, ys)
            assert graph.l2(y) == explicit.l2(y)
            for rr in range(1, len(ys) + 1):
                for xs in itertools.combinations(ys, rr):
                    x = IdSet(n, xs)
                    # components of an induced subgraph partition it, so the
                    # maximal candidate containing x is unique and the two
                    # backends must agree exactly
                    assert graph.l1(x, y) == explicit.l1(x, y)


@pytest.mark.parametrize("seed", range(10))
def test_graph_memo_answers_like_a_fresh_oracle(seed):
    # Sparse graphs, so hulls split into several components and many x
    # straddle two of them (answer None).  Queries cycle through a small
    # pool of hulls, so the one-component slot is both reused and replaced.
    rng = random.Random(500 + seed)
    spec = RandomSpec("graph", n_range=(4, 10), edge_prob=0.3, seed=500 + seed)
    memo = random_instance(spec).oracle
    n = memo.n
    edges = [(u, v) for u, nbrs in memo.adjacency.items() for v in nbrs if u < v]
    hulls = [rng.getrandbits(n) << 1 for _ in range(4)]
    hulls = [h for h in hulls if h] or [2]
    queries = nones = replaced = 0
    for _ in range(200):
        ym = rng.choice(hulls)
        xm = ym & (rng.getrandbits(n) << 1)
        if not xm:
            continue
        queries += 1
        x, y = IdSet._from_mask(n, xm), IdSet._from_mask(n, ym)
        replaced += memo._memo[0] != ym
        got = memo.l1(x, y)
        assert got == GraphConnectivityOracle(n, edges).l1(x, y)
        nones += got is None
        if rng.random() < 0.1:
            assert memo.l2(y) == GraphConnectivityOracle(n, edges).l2(y)
        # the slot holds one component of the current hull
        hull, comp = memo._memo
        assert hull == ym
        assert comp in union_find_components(edges, hull)
    assert 1 < replaced < queries
    assert nones > 0


def mismatches_across_threads(ask, jobs):
    """The queries ``ask`` got wrong or raised on, each job of ``(args, want)`` pairs in its own thread.

    A short switch interval makes the threads interleave inside ``ask``.
    """
    mismatches = []

    def work(queries):
        for args, want in queries:
            try:
                got = ask(*args)
            except Exception as e:  # a half-built memo may raise: count it
                got = e
            if got != want:
                mismatches.append(args)

    threads = [threading.Thread(target=work, args=(q,)) for q in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return mismatches


def test_graph_memo_shared_across_threads():
    # More threads than cores on one oracle, with a short switch interval
    # so that threads interleave inside l1: a race on the memo slot must
    # cost work, never an answer.
    rng = random.Random(99)
    n = 12
    spec = RandomSpec("graph", n_range=(n, n), edge_prob=0.25, seed=99)
    shared = random_instance(spec).oracle
    edges = [(u, v) for u, nbrs in shared.adjacency.items() for v in nbrs if u < v]
    hulls = [rng.getrandbits(n) << 1 | 2 for _ in range(3)]
    jobs = []
    for _ in range(6):
        queries = []
        for _ in range(300):
            ym = rng.choice(hulls)
            xm = ym & (rng.getrandbits(n) << 1) or ym & -ym
            x, y = IdSet._from_mask(n, xm), IdSet._from_mask(n, ym)
            queries.append(((x, y), GraphConnectivityOracle(n, edges).l1(x, y)))
        jobs.append(queries)
    assert mismatches_across_threads(shared.l1, jobs) == []


def test_explicit_rows_shared_across_threads():
    # The l2 rows are filled on first use.  Threads on one oracle, with a
    # short switch interval, interleave inside l2 while the rows fill: a
    # race on a row must cost work, never an answer.
    rng = random.Random(77)
    n = 12
    family = [IdSet._from_mask(n, m) for m in {rng.getrandbits(n) << 1 | 2 for _ in range(200)}]
    shared = ExplicitFamilyOracle(n, family)
    jobs = []
    for _ in range(6):
        hulls = [rng.getrandbits(n) << 1 for _ in range(200)]
        fresh = ExplicitFamilyOracle(n, family)
        jobs.append([((n, ym), fresh._l2_masks(n, ym)) for ym in hulls])
    assert mismatches_across_threads(shared._l2_masks, jobs) == []
    assert any(row is not None for row in shared._rows)


def test_explicit_chunk_tables_shared_across_threads():
    # The chunk tables are built when a byte walk first reads them.  Dense
    # hulls still leave out more elements than the walk has bytes, so both
    # the hulls and the l2 rows walk bytes while threads on one oracle
    # interleave: a race on a table must cost work, never an answer.
    rng = random.Random(78)
    n = 30
    full = (1 << (n + 1)) - 2
    family = [IdSet._from_mask(n, m) for m in {rng.getrandbits(n) << 1 | 2 for _ in range(200)}]
    shared = ExplicitFamilyOracle(n, family)
    jobs = []
    for _ in range(6):
        fresh = ExplicitFamilyOracle(n, family)
        queries = []
        for _ in range(150):
            ym = full & ~((rng.getrandbits(n) & rng.getrandbits(n)) << 1)
            xm = ym & (rng.getrandbits(n) << 1) or ym & -ym
            queries.append(((xm, ym), (fresh._l1_mask(n, xm, ym), fresh._l2_masks(n, ym))))
        jobs.append(queries)

    def ask(xm, ym):
        return shared._l1_mask(n, xm, ym), shared._l2_masks(n, ym)

    assert mismatches_across_threads(ask, jobs) == []
    assert any(table is not None for table in shared._tables)


@pytest.mark.parametrize("seed", range(20))
def test_explicit_mask_scans_match_idset_reference(seed):
    # Families of many incomparable mid-sized sets; y is a union of
    # members, so it holds several maximal candidates, and x is a common
    # part of two of them, so the l1 tie-break decides the answer.
    rng = random.Random(700 + seed)
    n = rng.randint(5, 10)
    masks = {rng.getrandbits(n) << 1 for _ in range(rng.randint(5, 40))}
    masks.discard(0)
    family = [IdSet._from_mask(n, m) for m in masks]
    rng.shuffle(family)
    oracle = ExplicitFamilyOracle(n, family)
    assert list(oracle.family) == family
    ties = 0
    for _ in range(60):
        a, b, c = (rng.choice(family) for _ in range(3))
        y = a | b | c
        if rng.random() < 0.3:
            y = y | IdSet._from_mask(n, rng.getrandbits(n) << 1)
        assert oracle.l2(y) == reference_l2(family, y)
        lone = IdSet(n, [rng.choice(list(y))])
        for x in (a & b, a, lone, IdSet._from_mask(n, y._mask & (rng.getrandbits(n) << 1))):
            if not x:
                continue
            want = reference_l1(family, x, y)
            assert oracle.l1(x, y) == want
            maximal_over_x = [m for m in reference_l2(family, y) if x.issubset(m)]
            ties += len(maximal_over_x) > 1
    assert ties > 0


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=families_and_queries())
# n = 1; an l1 with no answer ({1} is inside no member); a y that excludes
# every member; 130 members, past two machine words of bitmap.
@example(case=(1, [IdSet(1, [1])], [(0b10, 0b10), (0, 0)]))
@example(case=(3, [IdSet(3, [2]), IdSet(3, [2, 3])],
                 [(0b10, 0b1110), (0b10, 0b10), (0b100, 0b100)]))
@example(case=(8, [IdSet._from_mask(8, m << 1) for m in range(1, 256, 2)]
                  + [IdSet(8, [2]), IdSet(8, [4])], [(0b100, 0b111111110), (0b100, 0b10100)]))
# Members on both sides of the multiples of 8 and holding n, over three and
# six byte chunks, with hulls that leave out fewer and more elements than
# the byte count.
@example(case=(17, [IdSet(17, [7, 8, 9]), IdSet(17, [8, 16, 17]), IdSet(17, [1, 17]),
                    IdSet(17, [9, 15, 16]), IdSet(17, [15, 16]), IdSet(17, range(1, 18))],
               [(1 << 8, (1 << 18) - 2), (1 << 8, 0b1110000000), (1 << 16, 0b111 << 15),
                (1 << 17, ((1 << 18) - 2) & ~(1 << 8 | 1 << 9))]))
@example(case=(40, [IdSet(40, [7, 8]), IdSet(40, [8, 9]), IdSet(40, [15, 16, 17]),
                    IdSet(40, [23, 24, 25, 40]), IdSet(40, [31, 32, 33]), IdSet(40, [39, 40]),
                    IdSet(40, [1, 40]), IdSet(40, [16, 24, 32, 40]), IdSet(40, range(1, 41))],
               [(1 << 8, (1 << 41) - 2), (1 << 16, 0b111 << 15 | 1 << 24),
                (1 << 40, ((1 << 41) - 2) & ~(1 << 8 | 1 << 24)),
                (1 << 24, 0b111 << 23 | 1 << 40 | 0b11 << 31), (1 << 9, 0b11 << 8)]))
def test_explicit_bitmap_index_matches_reference(case):
    n, family, queries = case
    oracle = ExplicitFamilyOracle(n, family)
    for xm, ym in queries:
        y = IdSet._from_mask(n, ym)
        maximal = reference_l2(family, y)
        assert oracle._l2_masks(n, ym) == [c._mask for c in maximal]
        for c in family:
            if c.issubset(y):
                assert maximal_in(oracle, n, c._mask, ym)(ym) == (c in maximal)
        xm &= ym
        if xm:
            z = reference_l1(family, IdSet._from_mask(n, xm), y)
            assert oracle._l1_mask(n, xm, ym) == (None if z is None else z._mask)


def straddling_family(n, rng):
    """Members over ``[1, n]``: some hold ``n``, some lie on both sides of a multiple of 8."""
    masks = {1 << n, (1 << (n + 1)) - 2}
    for b in range(8, n + 1, 8):
        near = [v for v in (b - 1, b, b + 1) if v <= n]
        masks.update(1 << u | 1 << v for u in near for v in near)
        masks.add(1 << near[0] | 1 << near[-1] | 1 << n)
    masks.update(rng.getrandbits(n) << 1 for _ in range(6))
    masks.update(1 << rng.randint(1, n) | 1 << rng.randint(1, n) for _ in range(6))
    masks.discard(0)
    family = [IdSet._from_mask(n, m) for m in masks]
    rng.shuffle(family)
    return family


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200])
def test_explicit_byte_walk_matches_bit_walk_across_chunks(n):
    # _leaving walks the bits of what lies outside the hull when they are
    # no more than the support's bytes, and the bytes through the chunk
    # tables otherwise.  Both must give the members holding an element
    # outside the hull, and l1/l2 built on them must match the reference.
    rng = random.Random(n)
    family = straddling_family(n, rng)
    oracle = ExplicitFamilyOracle(n, family)
    support = oracle._support
    nbytes = (support.bit_length() + 7) // 8
    elements = [v for v in range(1, n + 1) if support >> v & 1]
    cut = sum(1 << v for v in rng.sample(elements, min(nbytes, len(elements))))
    sparse = [support, support & ~(1 << n), support & ~cut]
    dense = [0, 1 << n, rng.getrandbits(n) << 1, (rng.getrandbits(n) & rng.getrandbits(n)) << 1]
    dense += [c._mask for c in family if len(c) <= 2][:3]
    assert all((support & ~ym).bit_count() <= nbytes for ym in sparse)
    assert all((support & ~ym).bit_count() > nbytes for ym in dense) == (n > 1)

    def leaving(ym):
        return sum(1 << r for r, m in enumerate(oracle._masks) if m & ~ym)

    for ym in sparse:
        assert oracle._leaving(ym) == leaving(ym)
    assert oracle._tables == [None] * nbytes
    for ym in sparse + dense:
        assert oracle._leaving(ym) == leaving(ym)
        y = IdSet._from_mask(n, ym)
        assert oracle._l2_masks(n, ym) == [c._mask for c in reference_l2(family, y)]
        for xm in (ym & -ym, ym & rng.choice(family)._mask):
            if xm:
                z = reference_l1(family, IdSet._from_mask(n, xm), y)
                assert oracle._l1_mask(n, xm, ym) == (None if z is None else z._mask)
    assert any(table is not None for table in oracle._tables) == (n > 1)


def test_one_member_over_a_large_universe_walks_its_support():
    # Every l2 of the components run asks which members hold an element
    # outside a set.  Only element 1 can, so each walk reads one bit and no
    # chunk table is built, whatever the universe's size.
    n = 10**5
    stats, out = OracleStats(), []
    tracemalloc.start()
    try:
        oracle = ExplicitFamilyOracle(n, [[1]])
        enumerate_components(oracle, n, sink=out.append, stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [list(s.elements) for s in out] == [[1]]
    assert (stats.outputs, stats.l2_calls, stats.l1_calls) == (1, 3, 0)
    assert oracle._tables == [None]
    assert peak < 4 * 2**20, peak


@st.composite
def graph_queries(draw):
    """``graphs_and_hulls``, plus ``l1`` lower bounds and two probe parts."""
    n, edges, ym = draw(graphs_and_hulls())
    masks = st.integers(0, (1 << n) - 1).map(lambda m: m << 1)
    return n, edges, ym, draw(st.lists(masks, max_size=12)), draw(st.tuples(masks, masks))


P40 = [(i, i + 1) for i in range(1, 40) if i % 7]  # paths of 7 vertices


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=graph_queries())
@example(case=(1, [], 0b10, [0b10], (0b10, 0)))
@example(case=(40, P40, (1 << 41) - 2, [1 << v for v in range(1, 41, 3)],
               ((1 << 41) - 2, 0b111111011110)))
def test_graph_answers_match_union_find(case):
    n, edges, ym, lower, parts = case
    g = GraphConnectivityOracle(n, edges)
    full = (1 << (n + 1)) - 2
    hulls = [h for h in (ym, full) if h]
    want = {h: union_find_components(edges, h) for h in hulls}
    for h in hulls:
        assert g._l2_masks(n, h) == want[h]
    # Two queries per hull, then the other hull: the memo slot is reused,
    # then replaced.
    for i, x in enumerate(lower):
        h = hulls[i // 2 % len(hulls)]
        xm = x & h
        if xm:
            z = next((c for c in want[h] if not xm & ~c), None)
            assert g._l1_mask(n, xm, h) == z
    # The probe is asked about components only: those of a part of the hull.
    for h, part in zip(hulls, parts):
        for cm in union_find_components(edges, h & part):
            assert maximal_in(g, n, cm, h)(h) == (cm in want[h])
