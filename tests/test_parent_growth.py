"""The parent test's element pass, asked through ``_l1_growth``.

The element pass grows a solution ``s`` inside a hull one element at a
time: it keeps the lowest element ``b`` left with ``l1(grown | b, hull)``
not ``None``.  The default hook asks ``_l1_mask`` bit by bit; the graph
backend answers from the one component of the hull holding ``s``.  Both
must name the same element at every step, and the enumerator must answer
and count the same whichever it is given.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyenum import (
    ContractError,
    GraphConnectivityOracle,
    Instance,
    OracleStats,
    ReducedInstance,
    SetSystemOracle,
    children,
    parent,
)
from polyenum.testkit import brute_force_solutions, random_instance

from test_cut_vertices import BOWTIE, STAR, graphs_and_hulls, mask
from test_enumerator import ACCEPTANCE_SPECS


class DefaultGrowthGraph(GraphConnectivityOracle):
    """The graph backend with its ``_l1_growth`` override hidden."""

    _l1_growth = SetSystemOracle._l1_growth


class SweepCounter(GraphConnectivityOracle):
    """The graph backend, counting its breadth-first sweeps."""

    sweeps = 0

    def _component_mask(self, seed, ymask):
        self.sweeps += 1
        return super()._component_mask(seed, ymask)


def element_pass(oracle, n, sm, ym):
    """Every element the hook names while growing ``sm`` inside ``ym``, then 0.

    Between steps it asks an ``l1`` on the whole universe, as the solution
    test asks one on another hull, so the graph memo moves under the hook.
    """
    full = (1 << (n + 1)) - 2
    grow = oracle._l1_growth(n, sm, ym)
    grown, rest, named = sm, ym & ~sm, []
    while rest:
        bit = grow(grown, rest)
        named.append(bit)
        if not bit:
            break
        rest &= ~((bit << 1) - 1)
        grown |= bit
        oracle._l1_mask(n, grown, full)
    return named


@st.composite
def graphs_hulls_and_parts(draw):
    """``graphs_and_hulls`` plus a vertex set whose components seed the passes."""
    n, edges, ym = draw(graphs_and_hulls())
    part = draw(st.integers(0, (1 << n) - 1)) << 1
    return n, edges, ym, part


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=graphs_hulls_and_parts())
@example(case=(1, [], 0b10, 0b10))
@example(case=BOWTIE + (mask(*range(1, 9)), mask(3, 6)))
@example(case=STAR + (mask(1, 2, 3, 5), mask(2, 3, 4)))
@example(case=(40, [(i, i + 1) for i in range(1, 40)], mask(*range(1, 41)), mask(20)))
def test_graph_growth_names_what_the_default_names(case):
    n, edges, ym, part = case
    g = GraphConnectivityOracle(n, edges)
    plain = DefaultGrowthGraph(n, edges)
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
    grow = g._l1_growth(n, mask(3), hull)
    assert grow(mask(3), 0) == 0
    assert g.sweeps == 0
    assert grow(mask(3), mask(2, 6, 8)) == mask(2)
    assert g.sweeps == 1
    assert grow(mask(2, 3), mask(4, 6, 8)) == mask(4)
    assert grow(mask(2, 3, 4), mask(6, 8)) == 0
    assert g.sweeps == 1
    # A hull already in the memo needs no sweep at all.
    g._l1_mask(n, mask(7), hull)
    before = g.sweeps
    assert g._l1_growth(n, mask(7), hull)(mask(7), mask(1, 6, 8)) == mask(6)
    assert g.sweeps == before


def outcome(ask, inst, s):
    """``ask(inst, s, stats)`` and the stats, or the error it raised."""
    stats = OracleStats()
    try:
        got = ask(inst, s, stats)
    except ContractError as e:
        got = str(e)
    return got, stats.as_dict()


@pytest.mark.parametrize("reduced", [False, True], ids=["solutions", "components"])
@pytest.mark.parametrize(
    "spec", [s for s in ACCEPTANCE_SPECS if s.kind == "graph"], ids=lambda s: f"graph{s.seed}"
)
def test_hidden_override_keeps_parent_children_and_counts(spec, reduced):
    inst = random_instance(spec)
    n = inst.n
    edges = [(u, v) for u, nbrs in inst.oracle.adjacency.items() for v in nbrs if u < v]
    plain = DefaultGrowthGraph(n, edges)
    if reduced:
        inst, hidden = ReducedInstance(n, inst.oracle), ReducedInstance(n, plain)
    else:
        hidden = Instance(n, inst.q, [list(inst.sigma(v)) for v in range(1, n + 1)], plain)
    for s in brute_force_solutions(inst):
        for ask in (parent, children):
            assert outcome(ask, inst, s) == outcome(ask, hidden, s)
