"""The parent test's element pass, asked through ``_l1_growth``.

The element pass grows a solution ``s`` inside a hull one element at a
time: it keeps each element ``b`` left, in ascending order, with
``l1(grown | b, hull)`` not ``None``, and so grows the least component of
the hull holding ``s``.  The hook yields the kept elements.  The default
asks ``_l1_mask`` bit by bit; both shipped backends answer ``l1`` with that
least component and ask it once per pass.  Both must yield the same
elements, and the enumerator must answer and count the same whether a
shipped backend's hook overrides are in place or hidden behind
``PublicOnly``, which takes every default.
"""

import hashlib

import pytest
from hypothesis import example, given, settings

from polyenum import (
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    Instance,
    ReducedInstance,
    SetSystemOracle,
    children,
    enumerate_all,
    parent,
)
from polyenum.testkit import PublicOnly, RandomSpec, brute_force_solutions, random_instance

from conftest import (
    ACCEPTANCE_SPECS,
    BOWTIE,
    STAR,
    families_and_queries,
    graphs_hulls_and_parts,
    mask,
    outcome,
    reference_l1,
)


class SweepCounter(GraphConnectivityOracle):
    """The graph backend, counting its breadth-first sweeps."""

    sweeps = 0

    def _component_mask(self, seed, ymask):
        self.sweeps += 1
        return super()._component_mask(seed, ymask)


class L1Counter(ExplicitFamilyOracle):
    """The explicit backend, counting its ``_l1_mask`` answers."""

    calls = 0

    def _l1_mask(self, n, xm, ym):
        self.calls += 1
        return super()._l1_mask(n, xm, ym)


def element_pass(oracle, n, sm, ym):
    """Every element the hook yields while growing ``sm`` inside ``ym``.

    Between elements it asks an ``l1`` on the whole universe, as the
    solution test asks one on another hull, so the graph memo moves under
    the hook.
    """
    full = (1 << (n + 1)) - 2
    grown, named = sm, []
    for bit in oracle._l1_growth(n, sm, ym):
        named.append(bit)
        grown |= bit
        oracle._l1_mask(n, grown, full)
    return named


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=graphs_hulls_and_parts())
@example(case=(1, [], 0b10, 0b10))
@example(case=BOWTIE + (mask(*range(1, 9)), mask(3, 6)))
@example(case=STAR + (mask(1, 2, 3, 5), mask(2, 3, 4)))
@example(case=(40, [(i, i + 1) for i in range(1, 40)], mask(*range(1, 41)), mask(20)))
def test_graph_growth_names_what_the_default_names(case):
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
            assert element_pass(g, n, sm, hull) == element_pass(plain, n, sm, hull)


def test_graph_growth_sweeps_once_and_only_when_asked():
    n, edges = BOWTIE
    g = SweepCounter(n, edges)
    hull = mask(1, 2, 3, 4, 6, 7, 8)  # 5 left out: two components
    # Neither creating the generator nor an empty pass sweeps.
    grow = g._l1_growth(n, mask(3), hull)
    assert list(g._l1_growth(n, mask(1, 2, 3, 4), mask(1, 2, 3, 4))) == []
    assert g.sweeps == 0
    # The first element takes the one sweep of the pass.
    assert next(grow) == mask(1)
    assert g.sweeps == 1
    assert list(grow) == [mask(2), mask(4)]
    assert g.sweeps == 1
    # A hull already in the slot needs no sweep at all.
    g._l1_mask(n, mask(7), hull)
    before = g.sweeps
    assert list(g._l1_growth(n, mask(7), hull)) == [mask(6), mask(8)]
    assert g.sweeps == before


def test_explicit_growth_asks_once_and_only_when_asked():
    # Members inside the hull 1-4 that hold 2: 1-3, 2-3 and 2; the least,
    # 1-3, comes first in subset order.  1-5 and 4-5 leave the hull.
    n = 5
    e = L1Counter(n, [[2], [2, 3], [1, 2, 3], [1, 2, 3, 4, 5], [4, 5]])
    hull = mask(1, 2, 3, 4)
    # Neither creating the generator nor an empty pass asks anything.
    grow = e._l1_growth(n, mask(2), hull)
    assert list(e._l1_growth(n, mask(1, 2, 3), mask(1, 2, 3))) == []
    assert e.calls == 0
    # The first element takes the one l1 of the pass; the rest ask none.
    assert next(grow) == mask(1)
    assert e.calls == 1
    assert list(grow) == [mask(3)]
    assert e.calls == 1
    # The default asks one per element of the hull outside the start set.
    assert list(SetSystemOracle._l1_growth(e, n, mask(2), hull)) == [mask(1), mask(3)]
    assert e.calls == 4


def reference_pass(family, n, sm, ym):
    """The element pass as a greedy scan built on ``reference_l1``."""
    y = IdSet._from_mask(n, ym)
    grown, kept = sm, []
    for v in IdSet._from_mask(n, ym & ~sm):
        bit = 1 << v
        if reference_l1(family, IdSet._from_mask(n, grown | bit), y) is not None:
            grown |= bit
            kept.append(bit)
    return kept


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=families_and_queries())
@example(case=(3, [IdSet(3, [2]), IdSet(3, [1, 2]), IdSet(3, [2, 3])], [(0, 0b1110)]))
def test_explicit_growth_is_the_greedy_reference_pass(case):
    # The explicit backend's one-call hook against the greedy scan.
    n, family, queries = case
    oracle = ExplicitFamilyOracle(n, family)
    full = (1 << (n + 1)) - 2
    for ym in {full} | {ym for _, ym in queries}:
        for c in family:
            if not c._mask & ~ym:
                want = reference_pass(family, n, c._mask, ym)
                assert list(oracle._l1_growth(n, c._mask, ym)) == want


# Every override is hidden at once: the graph backend's probe, element
# pass and child scan, and the explicit backend's element pass.
@pytest.mark.parametrize("reduced", [False, True], ids=["solutions", "components"])
@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS, ids=lambda s: f"{s.kind}{s.seed}")
def test_hidden_override_keeps_parent_children_and_counts(spec, reduced):
    inst = random_instance(spec)
    n = inst.n
    if spec.kind == "graph":
        edges = [(u, v) for u, nbrs in inst.oracle.adjacency.items() for v in nbrs if u < v]
        plain = PublicOnly(GraphConnectivityOracle(n, edges))
    else:
        plain = PublicOnly(ExplicitFamilyOracle(n, inst.oracle.family))
    if reduced:
        inst, hidden = ReducedInstance(n, inst.oracle), ReducedInstance(n, plain)
    else:
        hidden = Instance(n, inst.q, [list(inst.sigma(v)) for v in range(1, n + 1)], plain)
    for s in brute_force_solutions(inst):
        for ask in (parent, children):
            assert outcome(ask, inst, s) == outcome(ask, hidden, s)


# The queries a custom backend receives from enumerate_all and from the
# children of every solution, as a count and a digest of the log in order.
# Recorded while the growth hook was still a function of (grown, rest);
# the default generator must ask the same queries lazily, and nothing
# more once the child test's parent pass stops early.
def test_custom_backend_sees_the_same_queries():
    logged = []
    for kind in ("graph", "explicit"):
        for seed in range(30):
            inst = random_instance(RandomSpec(kind=kind, n_range=(1, 8), seed=seed))
            sigma = [list(inst.sigma(v)) for v in range(1, inst.n + 1)]
            custom = Instance(inst.n, inst.q, sigma, PublicOnly(inst.oracle))
            enumerate_all(custom)
            for s in brute_force_solutions(inst):
                children(custom, s)
            logged += [" ".join([op] + [f"{m:x}" for m in ms]) for op, *ms in custom.oracle.log]
    assert len(logged) == 1098
    digest = hashlib.sha256("\n".join(logged).encode()).hexdigest()[:16]
    assert digest == "390a4f9de1b59874"
