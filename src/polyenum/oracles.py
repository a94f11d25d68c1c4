"""Concrete oracle backends.

Two set systems are shipped: a family listed member by member, indexed by
element in bitmaps over the members, and the connected induced subgraphs
of a simple undirected graph.  Both are deterministic, and concurrent
queries are safe.  What each memo holds is a pure function of the set
system, so a memo never changes an answer.  The explicit backend
remembers which members lie inside each member ``l2`` has kept, F² bits
at most for F members, and keeps at most one 256-entry table of F-bit
bitmaps per 8-element chunk that a byte walk has read, built on first
use.  The graph backend remembers the last component its ``l1`` queries
swept and the hull it lies in, O(n) memory.
``OracleStats`` counts logical calls, memo hits included, so the call
envelope of the enumeration does not depend on any memo.

Both backends answer the enumerator's mask queries (``_l1_mask``,
``_l2_masks``) directly.  They share one public ``l1``/``l2``, which
checks the query and wraps each mask answer in a fresh :class:`IdSet`,
and one ``_l1_growth``, one ``l1`` per element pass.  Of the other
optional hooks, whose contracts :class:`SetSystemOracle` states, the
graph backend overrides both and the explicit backend neither:

* ``_maximal_in``: the component's neighbours, one ``_reach`` (the OR of
  a mask's adjacency rows, as in each breadth-first level), which answers
  each of the parent test's maximality questions with one AND;
* ``_cut_parts``: one depth-first sweep, which lists the parts each cut
  vertex cuts off and the outer neighbours: the child scan's one hook.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import ContractError, IdSet, SetSystemOracle, lex_sort_key


class _MaskBackend(SetSystemOracle):
    """One public ``l1``/``l2``: check the query, wrap each mask answer in a new IdSet.

    Each ``l1(x, y)`` answers the least component between ``x`` and ``y``.
    """

    def _query_mask(self, s: IdSet) -> int:
        if s.capacity != self.n:
            raise ValueError(
                f"element set over [1, {s.capacity}] queried on a backend over [1, {self.n}]"
            )
        return s._mask

    def l1(self, x: IdSet, y: IdSet) -> Optional[IdSet]:
        xm, ym = self._query_mask(x), self._query_mask(y)
        if not xm:
            raise ContractError("l1 requires a non-empty lower bound set")
        if xm & ~ym:
            raise ContractError("l1 requires the lower bound to sit inside the upper bound")
        m = self._l1_mask(self.n, xm, ym)
        return None if m is None else IdSet._from_mask(self.n, m)

    def l2(self, y: IdSet) -> List[IdSet]:
        n = self.n
        return [IdSet._from_mask(n, m) for m in self._l2_masks(n, self._query_mask(y))]

    def _l1_growth(self, n: int, sm: int, ym: int) -> Iterator[int]:
        # The pass grows the least component of ym holding sm, which is what
        # l1 answers: one _l1_mask, at the first next() with elements left.
        rest = ym & ~sm
        if rest:
            rest &= self._l1_mask(n, sm, ym)
        while rest:
            bit = rest & -rest
            yield bit
            rest ^= bit


class ExplicitFamilyOracle(_MaskBackend):
    """A set system whose component family is listed member by member.

    The F members are put in subset order (:func:`subset_lex_less`) once,
    at construction, and indexed by element in vertical bitmaps: column
    ``v`` is an F-bit integer whose bit ``r`` is set when the ``r``-th
    member holds ``v``, so the index takes O(n·F) bits.  The members
    inside ``y`` are those holding no element outside it, an OR of the
    columns outside ``y``.  Only the support, the elements some member
    holds, has non-empty columns, so the OR walks the support outside
    ``y``: bit by bit when it has no more bits than the support has bytes,
    and otherwise byte by byte (the method of Four Russians), reading for
    each non-zero byte one entry of its chunk's table, the OR of the
    columns of each of the 256 subsets of that 8-element chunk.  A table
    is built the first time a byte walk reads its chunk, so there is at
    most one 256-entry table of F-bit bitmaps per chunk read, and none
    before the first byte walk.  ``l1(x, y)`` ANDs in the columns of
    ``x`` and answers the lowest member left: a set precedes its proper
    subsets, so that member is maximal within ``y``, and it wins the
    tie-break.
    ``l2(y)`` keeps the lowest member inside ``y``, clears every member
    inside that one, and repeats.  Which members lie inside a member is
    worked out the first time ``l2`` keeps it and remembered as an F-bit
    row, F² bits at most; a row or a table is a pure function of the
    family, so neither memo ever changes an answer.
    Each member must be non-empty, list no element twice and differ from
    every other member; the constructor rejects the first that does not.
    """

    def __init__(self, n: int, family: Iterable[Iterable[int]]) -> None:
        if n < 1:
            raise ValueError("need at least one element")
        self.n = n
        # Each member by its mask, in input order: catches a duplicate.
        members: Dict[int, IdSet] = {}
        for idx, raw in enumerate(family):
            if isinstance(raw, IdSet):
                if raw.capacity != n:
                    raise ValueError(f"family[{idx}]: universe size {raw.capacity} != {n}")
                c = raw
            else:
                ids = list(raw)
                try:
                    c = IdSet(n, ids)
                except ValueError as e:
                    raise ValueError(f"family[{idx}]: {e}") from None
                if len(c) != len(ids):
                    raise ValueError(f"family[{idx}]: repeated element")
            if not c:
                raise ValueError(f"family[{idx}]: empty component")
            if c._mask in members:
                raise ValueError(f"family[{idx}]: duplicate component {sorted(c)}")
            members[c._mask] = c
        self.family: Tuple[IdSet, ...] = tuple(members.values())
        # The members' masks in subset order: bit r of every bitmap below
        # stands for self._masks[r].
        self._masks: Tuple[int, ...] = tuple(
            c._mask for c in sorted(self.family, key=lex_sort_key)
        )
        self._all = (1 << len(self._masks)) - 1
        # Column v is the bitmap of the members holding element v: zip
        # transposes the members' bit strings, each written lowest element
        # first and listed last member first, so member r lands on bit r.
        bits = [format(m, f"0{n + 1}b")[::-1] for m in reversed(self._masks)]
        self._cols: Tuple[int, ...] = tuple(
            int("".join(col), 2) for col in zip(*bits)
        ) or (0,) * (n + 1)
        # The elements some member holds: any other has an empty column.
        support = 0
        for m in self._masks:
            support |= m
        self._support = support
        # Per member, the bitmap of the members not inside it, filled when
        # l2 first keeps the member, and per 8-element chunk of the
        # support, the OR of the columns of each subset of the chunk,
        # filled when a byte walk first reads the chunk.  Each row and
        # table is a pure function of the family, so filling one never
        # changes an answer, and a lost race only repeats the work.
        self._rows: List[Optional[int]] = [None] * len(self._masks)
        self._tables: List[Optional[List[int]]] = [None] * ((support.bit_length() + 7) // 8)

    def _table(self, c: int) -> List[int]:
        """Chunk ``c``'s table: entry ``b`` ORs column ``8c + i`` for each bit ``i`` of ``b``."""
        table = [0]
        for col in self._cols[8 * c:8 * c + 8]:
            table += [t | col for t in table]
        self._tables[c] = table
        return table

    def _leaving(self, sm: int) -> int:
        """The bitmap of the members holding some element outside ``sm``."""
        out = 0
        rest = self._support & ~sm
        tables = self._tables
        # Walk the shorter side: the bits of rest, or its bytes, one table
        # entry per non-zero byte (the method of Four Russians).
        if rest.bit_count() <= len(tables):
            cols = self._cols
            while rest:
                lsb = rest & -rest
                out |= cols[lsb.bit_length() - 1]
                rest ^= lsb
        else:
            for c, b in enumerate(rest.to_bytes(len(tables), "little")):
                if b:
                    out |= (tables[c] or self._table(c))[b]
        return out

    def _l1_mask(self, n: int, xm: int, ym: int) -> Optional[int]:
        cand = self._all & ~self._leaving(ym)
        cols = self._cols
        while xm and cand:
            lsb = xm & -xm
            cand &= cols[lsb.bit_length() - 1]
            xm ^= lsb
        if not cand:
            return None
        return self._masks[(cand & -cand).bit_length() - 1]

    def _l2_masks(self, n: int, ym: int) -> List[int]:
        kept: List[int] = []
        cand = self._all & ~self._leaving(ym)
        masks, rows = self._masks, self._rows
        # Every strict superset of a candidate comes before it, so the
        # lowest candidate is maximal: keep it, clear the candidates inside
        # it, and repeat.
        while cand:
            r = (cand & -cand).bit_length() - 1
            kept.append(masks[r])
            row = rows[r]
            if row is None:
                row = rows[r] = self._leaving(masks[r])
            cand &= row
        return kept

    def delta_hint(self) -> int:
        return len(self.family)


class GraphConnectivityOracle(_MaskBackend):
    """Components are the non-empty vertex sets inducing a connected subgraph.

    The graph is simple and undirected, with vertices in ``[1, n]``; the
    constructor rejects a self-loop and an edge given twice, in either
    orientation.  Connectivity queries run an iterative breadth-first
    sweep restricted to the queried vertex set, entirely on bitmasks, so
    no recursion depth is involved however large the graph gets; each
    level is one ``_reach``, the OR of its vertices' adjacency rows.
    ``l1`` remembers the last component it swept and its hull, and a
    query inside that component on that hull reuses it.  The maximality
    predicate runs no sweep: a connected set is maximal within ``y``
    exactly when no vertex of ``y`` outside it is adjacent to it, so it
    takes the set's ``_reach`` less the set once, and each ``y`` costs one
    AND.  ``l1`` answers the least component between ``x`` and ``y``:
    every connected set between them lies in the one it sweeps.
    ``_cut_parts`` runs one depth-first sweep of a component and lists
    the parts each of its cut vertices cuts off, and its outer neighbours.
    """

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()) -> None:
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self._adj = [0] * (n + 1)
        for idx, edge in enumerate(edges):
            if len(edge) != 2:
                raise ValueError(f"edges[{idx}]: expected two endpoints, got {len(edge)}")
            u, v = edge
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edges[{idx}]: edge ({u}, {v}) outside [1, {n}]")
            if u == v:
                raise ValueError(f"edges[{idx}]: self-loop at vertex {u}")
            if self._adj[u] >> v & 1:
                raise ValueError(f"edges[{idx}]: duplicate edge ({u}, {v})")
            self._adj[u] |= 1 << v
            self._adj[v] |= 1 << u
        # The last (hull, component of that hull) an l1 query swept.  It is
        # a pure function of the pair, so the memo never changes an answer,
        # and one assignment replaces it: concurrent queries at worst sweep
        # again.
        self._memo: Tuple[int, int] = (-1, 0)

    @property
    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """Vertex to sorted neighbor tuple, for inspection."""
        return {
            v: tuple(IdSet._from_mask(self.n, self._adj[v]))
            for v in range(1, self.n + 1)
        }

    def _reach(self, m: int) -> int:
        adj = self._adj
        reach = 0
        while m:
            lsb = m & -m
            reach |= adj[lsb.bit_length() - 1]
            m ^= lsb
        return reach

    def _component_mask(self, seed: int, ymask: int) -> int:
        comp = 0
        frontier = 1 << seed
        while frontier:
            comp |= frontier
            frontier = self._reach(frontier) & ymask & ~comp
        return comp

    def _l1_mask(self, n: int, xm: int, ym: int) -> Optional[int]:
        hull, comp = self._memo
        seed = (xm & -xm).bit_length() - 1
        if hull != ym or not comp >> seed & 1:
            comp = self._component_mask(seed, ym)
            self._memo = (ym, comp)
        if xm & ~comp:
            return None
        return comp

    def _maximal_in(self, n: int, cm: int) -> Callable[[int], bool]:
        # cm is connected: it is maximal within y iff y holds none of w.
        w = self._reach(cm) & ~cm
        return lambda y: not w & y

    def _l2_masks(self, n: int, ym: int) -> List[int]:
        comps: List[int] = []
        remaining = ym
        while remaining:
            seed = (remaining & -remaining).bit_length() - 1
            comp = self._component_mask(seed, ym)
            comps.append(comp)
            remaining &= ~comp
        # Seeds were taken in ascending order and the components are
        # disjoint, so this is already sorted by subset_lex_less.
        return comps

    def _cut_parts(self, n: int, tm: int) -> Tuple[Dict[int, List[int]], List[Tuple[int, int]]]:
        # tm is a component, so one depth-first sweep from its least vertex
        # reaches all of it.  Each stack entry is a vertex on the tree path,
        # the vertices seen before it (its subtree is what has been seen
        # since) and the OR of its subtree's adjacency rows so far.  A
        # popped vertex has every neighbour seen, so outside v's subtree and
        # its parent p only p's ancestors, all seen before p, can touch the
        # subtree: it is a component of tm - p exactly when its rows miss
        # what was seen before p, as every subtree of the root does.  The
        # root ends with reach = N(tm).  The parts take O(|tm|) memory together.
        adj = self._adj
        root = (tm & -tm).bit_length() - 1
        cuts: Dict[int, List[int]] = {}
        stack = [(root, 0, adj[root])]
        seen = 1 << root
        while stack:
            v, before, reach = stack[-1]
            nxt = adj[v] & tm & ~seen
            if nxt:
                bit = nxt & -nxt
                w = bit.bit_length() - 1
                stack.append((w, seen, adj[w]))
                seen |= bit
                continue
            stack.pop()
            if stack:
                p, above, prow = stack[-1]
                if not reach & above:
                    cuts.setdefault(p, []).append(seen & ~before)
                stack[-1] = (p, above, prow | reach)
        outer, out = [], reach & ~tm
        while out:
            x = out.bit_length() - 1
            outer.append((x, adj[x] & tm))
            out ^= 1 << x
        return cuts, outer

    def delta_hint(self) -> int:
        return self.n
