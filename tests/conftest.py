"""Fixtures, named inputs, strategies and references shared by the test modules.

Test modules import what they share from here, never from each other.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    Instance,
    OracleStats,
    ReducedInstance,
    subset_lex_less,
)
from polyenum import cli
from polyenum.core import lex_sort_key
from polyenum.testkit import PublicOnly, RandomSpec

P3_SIGMA = [[1], [1, 2], [2]]
P3_JSON = str(Path(__file__).parents[1] / "docs" / "p3.json")  # the p3 fixture's document
P3_DOC = {
    "elements": 3,
    "items": 2,
    "sigma": [[1], [1, 2], [2]],
    "system": {"kind": "graph", "edges": [[1, 2], [2, 3]]},
}
P3_GOLDEN = "1 2 3\t-\n1 2\t1\n2\t1 2\n2 3\t2\n"

# The 200 seeded instances of the acceptance suite.
ACCEPTANCE_SPECS = [RandomSpec(kind="explicit", n_range=(1, 7), seed=s) for s in range(100)] + [
    RandomSpec(kind="graph", n_range=(1, 8), seed=s) for s in range(1000, 1100)
]

# Triangles 1-2-3 and 3-4-5 sharing vertex 3, then the path 5-6-7-8:
# cut vertices 3, 5, 6 and 7 (docs/bowtie.json holds the same graph).
BOWTIE = (8, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8)])
# Vertex 1, the least and so the root of a depth-first sweep, has four children.
STAR = (5, [(1, 2), (1, 3), (1, 4), (1, 5)])
# The root's first child is 3, its second 5; 5's subtree holds 2, so the
# components of t - 1 are not in the order the sweep found them.
SWAPPED = (5, [(1, 3), (1, 5), (2, 5), (4, 5)])


@pytest.fixture
def p3():
    """Path 1-2-3 with sigma(1)={1}, sigma(2)={1,2}, sigma(3)={2}."""
    oracle = GraphConnectivityOracle(3, [(1, 2), (2, 3)])
    return Instance(3, 2, P3_SIGMA, oracle)


@pytest.fixture
def p3_explicit():
    """Same attributes as p3 but over the listed family {2},{1,2},{2,3},{1,2,3}."""
    oracle = ExplicitFamilyOracle(3, [[2], [1, 2], [2, 3], [1, 2, 3]])
    return Instance(3, 2, P3_SIGMA, oracle)


def elems(inst, *ids):
    return IdSet(inst.n, ids)


def items(inst, *ids):
    return IdSet(inst.q, ids)


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(args):
    """Exit code, stdout and stderr of the CLI run with ``args``."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def mask(*ids):
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@st.composite
def graphs_and_hulls(draw, max_n=40):
    """A sparse simple graph on ``[1, n]`` and a vertex set ``ym`` inside it."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    ym = draw(st.integers(0, (1 << n) - 1)) << 1
    return n, edges, ym


@st.composite
def graphs_hulls_and_parts(draw):
    """``graphs_and_hulls`` plus a vertex set whose components seed the hook checks."""
    n, edges, ym = draw(graphs_and_hulls())
    part = draw(st.integers(0, (1 << n) - 1)) << 1
    return n, edges, ym, part


def drawn_components(n, edges, ym, part):
    """``(hull, cm)`` for the hulls ``ym`` and ``[1, n]`` and each component
    ``cm`` inside one: the hull's maximal ones, then those of ``hull & part``."""
    g = GraphConnectivityOracle(n, edges)
    return [(hull, cm) for hull in (ym, (1 << (n + 1)) - 2)
            for cm in g._l2_masks(n, hull) + g._l2_masks(n, hull & part)]


def public_twin(inst, wrap=PublicOnly):
    """The same sigma rows, or the reduction, over ``wrap`` of a fresh backend.

    The twin takes every hook's ``SetSystemOracle`` default, and its
    ``oracle.log`` lists the queries a custom backend is asked.  The fresh
    backend keeps the twin's queries out of the shipped backend's memo.
    """
    o, n = inst.oracle, inst.n
    if isinstance(o, GraphConnectivityOracle):
        fresh = GraphConnectivityOracle(
            n, [(u, v) for u, nbrs in o.adjacency.items() for v in nbrs if u < v])
    else:
        fresh = ExplicitFamilyOracle(n, o.family)
    if isinstance(inst, ReducedInstance):
        return ReducedInstance(n, wrap(fresh))
    return Instance(n, inst.q, [list(inst.sigma(v)) for v in range(1, n + 1)], wrap(fresh))


def outcome(ask, inst, s):
    """``ask(inst, s, stats)`` and the stats, or the error it raised."""
    stats = OracleStats()
    try:
        got = ask(inst, s, stats)
    except ContractError as e:
        got = str(e)
    return got, stats.as_dict()


@st.composite
def families_and_queries(draw):
    """A family of 1 to 150 members over ``[1, n]`` and queries ``(x, y)`` on it."""
    n = draw(st.integers(1, 9))
    size = draw(st.integers(1, min(150, (1 << n) - 1)))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=size, max_size=size,
                          unique=True))
    family = [IdSet._from_mask(n, m << 1) for m in masks]
    queries = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                                      st.integers(0, (1 << n) - 1)), max_size=6))
    return n, family, [(xm << 1, ym << 1) for xm, ym in queries]


def reference_l1(family, x, y):
    """The maximal-then-least scan on IdSet operations."""
    candidates = [c for c in family if x.issubset(c) and c.issubset(y)]
    best = None
    for c in candidates:
        if any(c < d for d in candidates):
            continue
        if best is None or subset_lex_less(c, best):
            best = c
    return best


def reference_l2(family, y):
    candidates = [c for c in family if c.issubset(y)]
    maximal = [c for c in candidates if not any(c < d for d in candidates)]
    maximal.sort(key=lex_sort_key)
    return maximal


def union_find_components(edges, ym):
    """The components of the subgraph induced on ``ym``, least vertex first."""
    root = {v: v for v in range(ym.bit_length()) if ym >> v & 1}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]  # path halving: long paths stay fast
            v = root[v]
        return v

    for u, v in edges:
        if u in root and v in root:
            root[find(u)] = find(v)
    comps = {}
    for v in root:
        comps[find(v)] = comps.get(find(v), 0) | 1 << v
    return sorted(comps.values(), key=lambda c: c & -c)


def connected_set_count(n, edges):
    """How many non-empty vertex sets of a forest, or of a cycle, on ``[1, n]`` are connected.

    In a forest with each tree rooted, ``f(v) = prod(1 + f(c))`` over the
    children ``c`` of ``v`` counts the connected sets whose vertex nearest
    the root is ``v``, and the total sums ``f`` over all vertices.  The
    cycle ``C_n`` has ``n(n - 1) + 1``: from each vertex an arc of 1 to
    ``n - 1`` vertices going one way round, and the whole cycle.
    """
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    up = [None] * (n + 1)  # each vertex's parent in its tree, 0 at a root
    f = [1] * (n + 1)
    total = trees = 0
    cyclic = False
    for r in range(1, n + 1):
        if up[r] is not None:
            continue
        trees += 1
        up[r], order, stack = 0, [], [r]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if up[w] is None:
                    up[w] = v
                    stack.append(w)
                elif w != up[v]:
                    cyclic = True  # w was reached another way
        for v in reversed(order):  # children before their parents
            total += f[v]
            if up[v]:
                f[up[v]] *= 1 + f[v]
    if cyclic:
        assert trees == 1 and all(len(a) == 2 for a in adj[1:]), "neither a forest nor a cycle"
        return n * (n - 1) + 1
    return total


def reference_algebra(sigma_rows, n, q):
    """Common items, hull and slice straight from the attribute rows."""
    rows = [None] + [set(r) for r in sigma_rows]

    def common(x):
        return IdSet(q, set.intersection(*(rows[v] for v in x)))

    def hull(items):
        return IdSet(n, [v for v in range(1, n + 1) if set(items) <= rows[v]])

    def slice_(i):
        return IdSet(n, [v for v in range(1, n + 1) if i == 0 or i in rows[v]])

    return common, hull, slice_


def once(sink):
    """``sink`` behind a guard that raises at the first record emitted twice.

    A run emits each record once.  A wrong child scan gives a node more
    than one parent, so the traversal repeats whole subtrees; the guard
    stops it at the first repeat instead of collecting without bound.
    """
    seen = set()

    def guarded(s):
        if s in seen:
            raise AssertionError(f"{sorted(s.elements)} in group {s.k} emitted twice")
        seen.add(s)
        sink(s)

    return guarded


def rendered(run):
    """The CLI's ``--format json`` stream of ``run(sink, stats)``, and its stats.

    The stats come as the final counters plus the counters at each output,
    which the sink reads as the solution arrives; a record emitted twice
    raises (:func:`once`).
    """
    lines, stats, at_outputs = [], OracleStats(), []

    @once
    def sink(s):
        lines.append(cli._json_record(s) + "\n")
        at_outputs.append(
            (stats.l1_calls, stats.l2_calls, stats.rho_calls, stats.traversal_calls)
        )

    run(sink, stats)
    # the streamed maximum is the largest traversal window the sink saw
    windows = [b[3] - a[3] for a, b in zip(at_outputs, at_outputs[1:])]
    assert stats.max_interoutput_traversals == max(windows, default=0)
    assert stats.outputs == len(at_outputs)
    return "".join(lines).encode("utf-8"), (stats.as_dict(), at_outputs)
