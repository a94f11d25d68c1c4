"""The cut vertices behind the child scan of components mode.

The scan asks ``l2(t - j)`` for each ``j`` of a node ``t`` above its
group.  A backend that answers ``SetSystemOracle._cut_parts(n, t)`` lists
the parts each cut vertex of ``t`` cuts off and the outer neighbours of
``t`` with their attachments, and the scan works out every ``j`` and each
candidate's parent from that one answer; the graph backend does, from one
depth-first sweep of ``t``.  Rebuilt from it, each ``l2(t - j)`` must be
exactly what ``_l2_masks(n, t - j)`` gives, and the outer list exactly
``N(t) - t``.  The explicit backend and a custom backend answer ``None``
and take the generic scan, so the queries a custom backend sees are
pinned.
"""

import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings

from polyenum import (
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    OracleStats,
    ReducedInstance,
    children,
    enumerate_components,
    make_solution,
)
from polyenum.core import lex_sort_key
from polyenum.testkit import PublicOnly, brute_force_solutions

from conftest import (
    BOWTIE,
    STAR,
    SWAPPED,
    families_and_queries,
    graphs_and_hulls,
    graphs_hulls_and_parts,
    mask,
    once,
    outcome,
    reference_l2,
    union_find_components,
)


CHORDED_PATH = (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)])


def cut_dict(oracle, n, tm):
    """The cut parts half of ``_cut_parts(n, tm)``: each cut vertex to the parts it cuts off."""
    cuts, _ = oracle._cut_parts(n, tm)
    return cuts


def brute_outer(edges, tm):
    """``N(tm) - tm``, highest first, each ``x`` with the mask of its neighbours in ``tm``."""
    attach = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if not tm >> a & 1 and tm >> b & 1:
                attach[a] = attach.get(a, 0) | 1 << b
    return sorted(attach.items(), reverse=True)


def l2_without(oracle, n, tm):
    """The function ``j`` to ``l2(tm - j)``, rebuilt from the cut parts of ``tm``."""
    cuts = cut_dict(oracle, n, tm)

    def answer(j):
        parts = cuts.get(j, [])
        rest = tm & ~(1 << j)
        for c in parts:
            rest &= ~c
        return sorted([c for c in [rest, *parts] if c], key=lambda c: c & -c)

    return answer


def without_answers(oracle, n, tm):
    """``l2(tm - j)`` from the cut parts, for every ``j`` of ``tm`` that leaves it non-empty."""
    answer = l2_without(oracle, n, tm)
    return [answer(j) for j in range(1, n + 1) if tm >> j & 1 and tm & ~(1 << j)]


def direct_answers(oracle, n, tm):
    """``_l2_masks(n, tm - j)`` for the same ``j``."""
    return [oracle._l2_masks(n, tm & ~(1 << j))
            for j in range(1, n + 1) if tm >> j & 1 and tm & ~(1 << j)]


class TestGraphHook:
    def test_cut_vertices_leaves_and_root(self):
        n, edges = BOWTIE
        g = GraphConnectivityOracle(n, edges)
        cuts = cut_dict(g, n, mask(*range(1, 9)))
        # The cut vertices, each with the parts it cuts off, and the root
        # with its one subtree.
        assert cuts == {1: [mask(*range(2, 9))], 3: [mask(*range(4, 9))],
                        5: [mask(6, 7, 8)], 6: [mask(7, 8)], 7: [mask(8)]}
        answer = l2_without(g, n, mask(*range(1, 9)))
        assert answer(1) == [mask(*range(2, 9))]  # the root, with one child
        assert answer(2) == [mask(1, *range(3, 9))]
        assert answer(3) == [mask(1, 2), mask(*range(4, 9))]
        assert answer(5) == [mask(1, 2, 3, 4), mask(6, 7, 8)]
        assert answer(7) == [mask(*range(1, 7)), mask(8)]
        assert answer(8) == [mask(*range(1, 8))]  # a leaf
        # The path 1-...-6 with the chord 3-6: the back edge from 6, two
        # levels below 4, reaches 3, so neither 4 nor 5 cuts anything off,
        # and 3 still does.
        g = GraphConnectivityOracle(*CHORDED_PATH)
        assert cut_dict(g, 6, mask(*range(1, 7))) == {
            1: [mask(2, 3, 4, 5, 6)], 2: [mask(3, 4, 5, 6)], 3: [mask(4, 5, 6)]}

    def test_root_with_several_children(self):
        n, edges = STAR
        g = GraphConnectivityOracle(n, edges)
        assert l2_without(g, n, mask(1, 2, 3, 4, 5))(1) == [mask(2), mask(3), mask(4), mask(5)]
        n, edges = SWAPPED
        g = GraphConnectivityOracle(n, edges)
        # The root's parts, in whatever order the sweep found them.
        assert set(cut_dict(g, n, mask(1, 2, 3, 4, 5))[1]) == {mask(3), mask(2, 4, 5)}
        answer = l2_without(g, n, mask(1, 2, 3, 4, 5))
        assert answer(1) == [mask(2, 4, 5), mask(3)]
        assert answer(5) == [mask(1, 3), mask(2), mask(4)]

    def test_two_vertices_leave_singletons(self):
        g = GraphConnectivityOracle(3, [(2, 3)])
        answer = l2_without(g, 3, mask(2, 3))
        assert answer(2) == [mask(3)]
        assert answer(3) == [mask(2)]

    def test_children_of_a_disconnected_record_match_the_default(self):
        # children() rejects a record whose elements are not connected
        # before any scan asks the hook, so the outcome, a list or an
        # error, must not depend on the backend answering it.
        g = GraphConnectivityOracle(6, [(1, 2), (2, 3), (5, 6)])
        inst, custom = ReducedInstance(6, g), ReducedInstance(6, PublicOnly(g))
        for r in range(2, 6):
            for ids in itertools.combinations(range(1, 7), r):
                s = make_solution(inst, IdSet(6, ids))
                assert outcome(children, inst, s) == outcome(children, custom, s)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=graphs_hulls_and_parts())
@example(case=(1, [], 0b10, 0b10))
@example(case=(4, [], 0b11110, 0))  # singletons only: nothing to ask
@example(case=(5, [(1, 2), (2, 3), (3, 4), (4, 5)], 0b111110, 0))  # a path: leaves and cuts
@example(case=BOWTIE + (mask(*range(1, 9)), mask(3, 6)))
@example(case=STAR + (mask(*range(1, 6)), 0))
@example(case=SWAPPED + (mask(*range(1, 6)), 0))
@example(case=(40, [(i, i + 1) for i in range(1, 40)], mask(*range(1, 41)), mask(20)))
@example(case=CHORDED_PATH + (mask(*range(1, 7)), mask(3, 4, 5, 6)))
def test_graph_hook_matches_l2_on_every_component(case):
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
        for tm in seeds:
            assert without_answers(g, n, tm) == direct_answers(plain, n, tm)
            assert g._cut_parts(n, tm)[1] == brute_outer(edges, tm)
        assert plain._cut_parts(n, hull) is None


def test_sweep_on_a_path_deeper_than_the_recursion_limit():
    # Hypothesis stops at 40 vertices.  On the path 1-...-3000 every vertex
    # but the last cuts off all that follows it, and the sweep is 3,000
    # entries deep, past Python's recursion limit.
    n = 3000
    assert n > sys.getrecursionlimit()
    g = GraphConnectivityOracle(n, [(i, i + 1) for i in range(1, n)])
    full = (1 << (n + 1)) - 2
    assert cut_dict(g, n, full) == {j: [full >> (j + 1) << (j + 1)] for j in range(1, n)}


def large_sparse_graphs():
    """The 3,000-vertex path relabelled, and three random trees with chords."""
    rng = random.Random(29)
    perm = list(range(1, 3001))
    rng.shuffle(perm)
    yield 3000, [(perm[i], perm[i + 1]) for i in range(2999)]
    for n in (100, 250, 400):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = {(perm[rng.randrange(v)], perm[v]) for v in range(1, n)}
        while len(edges) < n - 1 + n // 10:
            u, v = rng.sample(perm, 2)
            if (v, u) not in edges:
                edges.add((u, v))
        yield n, sorted(edges)


@pytest.mark.parametrize("n, edges", large_sparse_graphs(),
                         ids=["path3000", "tree100", "tree250", "tree400"])
def test_sweep_matches_union_find_on_large_sparse_graphs(n, edges):
    # Each graph is connected: its sweep lists the parts of 50 sampled
    # vertices, and each l2(t - j) rebuilt from them must be what
    # union-find gives on t - j.
    g = GraphConnectivityOracle(n, edges)
    tm = (1 << (n + 1)) - 2
    answer = l2_without(g, n, tm)
    split = 0
    for j in random.Random(n).sample(range(1, n + 1), 50):
        want = union_find_components(edges, tm & ~(1 << j))
        assert answer(j) == want
        split += len(want) > 1
    assert split  # some sampled vertex is a cut vertex


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=families_and_queries())
@example(case=(3, [IdSet(3, [2]), IdSet(3, [1, 2]), IdSet(3, [2, 3])], []))
def test_explicit_default_hook_matches_reference_l2(case):
    n, family, _ = case
    oracle = ExplicitFamilyOracle(n, family)
    for c in family:
        rests = [c - IdSet(n, [j]) for j in c] if len(c) > 1 else []
        want = [[m._mask for m in reference_l2(family, rest)] for rest in rests]
        assert oracle._cut_parts(n, c._mask) is None
        assert direct_answers(oracle, n, c._mask) == want


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=graphs_and_hulls(max_n=12))
@example(case=BOWTIE + (0,))
@example(case=STAR + (0,))
def test_components_mode_matches_brute_force(case):
    n, edges, _ = case
    g = GraphConnectivityOracle(n, edges)
    got = []
    enumerate_components(g, n, sink=once(got.append))
    want = brute_force_solutions(ReducedInstance(n, g))
    assert len(got) == len(set(got))
    assert sorted(got, key=lambda s: (s.k, lex_sort_key(s.elements))) == want


CYCLE10 = (10, [(i, i % 10 + 1) for i in range(1, 11)])
GNP11 = (11, [(1, 2), (1, 5), (1, 10), (1, 11), (2, 6), (2, 9), (3, 4), (3, 5), (3, 9),
              (3, 11), (4, 5), (4, 8), (4, 9), (4, 10), (5, 6), (5, 7), (5, 11), (6, 9)])


# The l2 queries a custom backend receives in components mode, as a count
# and a digest of the masks in order.  Recorded before the graph backend
# answered the child scan from one sweep; a custom backend takes the
# default hook, so they must not move.
@pytest.mark.parametrize(
    "graph, queries, digest",
    [(BOWTIE, 163, "1608e9ebf2e84bb5"), (CYCLE10, 287, "508b6891e042e0f2"),
     (GNP11, 3878, "8a011c547f64660e")],
    ids=["bowtie", "cycle10", "gnp11"],
)
def test_custom_backend_sees_the_same_l2_queries(graph, queries, digest):
    n, edges = graph
    g = GraphConnectivityOracle(n, edges)
    logged = PublicOnly(g)
    stats, out = OracleStats(), []
    enumerate_components(logged, n, sink=once(out.append), stats=stats)
    l2_log = [q[1] for q in logged.log if q[0] == "l2"]
    assert stats.l2_calls == len(l2_log) == queries
    assert hashlib.sha256(",".join(map(hex, l2_log)).encode()).hexdigest()[:16] == digest
    # The graph backend's own path emits the same records and counts.
    direct_stats, direct = OracleStats(), []
    enumerate_components(g, n, sink=once(direct.append), stats=direct_stats)
    assert direct == out
    assert direct_stats.as_dict() == stats.as_dict()


class RootLeftOut(GraphConnectivityOracle):
    """Leaves ``min(tm)``'s entry out of ``_cut_parts`` when it lists one part."""

    dropped = 0

    def _cut_parts(self, n, tm):
        cuts, outer = super()._cut_parts(n, tm)
        root = (tm & -tm).bit_length() - 1
        if len(cuts.get(root, ())) == 1:
            del cuts[root]
            self.dropped += 1
        return cuts, outer


def records_and_counts(oracle, n):
    """The records of a components run through ``oracle``, and its stats."""
    stats, out = OracleStats(), []
    enumerate_components(oracle, n, sink=once(out.append), stats=stats)
    return out, stats.as_dict()


GRAPHS = pytest.mark.parametrize("graph", [BOWTIE, STAR, SWAPPED, CYCLE10, GNP11],
                                 ids=["bowtie", "star", "swapped", "cycle10", "gnp11"])


@GRAPHS
def test_an_absent_root_entry_cuts_off_nothing(graph):
    # min(tm) with one part leaves tm - min(tm) whole, exactly what an
    # absent entry reads as, so leaving it out moves no record and no count.
    n, edges = graph
    left_out = RootLeftOut(n, edges)
    got = records_and_counts(left_out, n)
    assert left_out.dropped
    assert got == records_and_counts(GraphConnectivityOracle(n, edges), n)


class NoWitness(GraphConnectivityOracle):
    """The graph backend with a ``_neighbours`` that raises when asked."""

    def _neighbours(self, n, cm, ym):
        raise AssertionError("the closed-form child scan asked for a witness")


@GRAPHS
def test_the_closed_form_scan_asks_no_witness(graph):
    # Each candidate's parent is read off the cut parts and the outer
    # neighbours, so a run never asks _neighbours and still gives the
    # graph backend's records and counts.
    n, edges = graph
    got = records_and_counts(NoWitness(n, edges), n)
    assert got == records_and_counts(GraphConnectivityOracle(n, edges), n)


def test_explicit_backend_takes_the_default_hook():
    family = [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]
    o = ExplicitFamilyOracle(3, family)
    assert o._cut_parts(3, mask(1, 2, 3)) is None
    assert direct_answers(o, 3, mask(1, 2, 3)) == [[mask(2, 3)], [mask(1), mask(3)], [mask(1, 2)]]
    got = []
    enumerate_components(o, 3, sink=once(got.append))
    assert {s.elements for s in got} == {IdSet(3, c) for c in family}
