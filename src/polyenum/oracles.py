"""Concrete oracle backends.

Two set systems are shipped: a family listed verbatim (the correctness
workhorse at desk scale) and the connected induced subgraphs of a simple
undirected graph.  Both are deterministic, and concurrent queries are safe.
The explicit backend is immutable after construction.  The graph backend
keeps a one-hull memo of the components its ``l1`` queries found; those
are pure functions of the query, so the memo never changes an answer, and
it holds one hull's components at most, O(n) memory.  ``OracleStats``
counts logical calls, memo hits included, so the call envelope of the
enumeration does not depend on it.

Both backends answer the enumerator's mask queries (``_l1_mask``,
``_l2_masks``) directly; their public ``l1``/``l2`` check the query and
wrap those answers in :class:`IdSet`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import ContractError, IdSet, SetSystemOracle, lex_sort_key


def _mask_over(n: int, s: IdSet) -> int:
    if s.capacity != n:
        raise ValueError(
            f"element set over [1, {s.capacity}] queried on a backend over [1, {n}]"
        )
    return s._mask


def _l1_query(n: int, x: IdSet, y: IdSet) -> Tuple[int, int]:
    """The masks of a public ``l1`` query: ``x`` non-empty and inside ``y``."""
    xm, ym = _mask_over(n, x), _mask_over(n, y)
    if not xm:
        raise ContractError("l1 requires a non-empty lower bound set")
    if xm & ~ym:
        raise ContractError("l1 requires the lower bound to sit inside the upper bound")
    return xm, ym


class ExplicitFamilyOracle(SetSystemOracle):
    """A set system whose component family is stored as a plain list.

    Queries scan the members' bitmasks in subset order
    (:func:`subset_lex_less`), fixed once at construction.  ``l1`` scans
    only the members holding the least element of ``x`` (a per-element
    index) and ``l2`` is at worst quadratic in the family size.  This
    backend exists to be obviously correct at desk scale, not to be fast.
    Each member must be non-empty, list no element twice and differ from
    every other member; the constructor rejects the first that does not.
    """

    def __init__(self, n: int, family: Iterable[Iterable[int]]) -> None:
        if n < 1:
            raise ValueError("need at least one element")
        self.n = n
        # The stored member behind each mask, in input order, for the
        # public answers; it is also what catches a duplicate member.
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
        self._members = members
        # The members' masks in subset order, for the scans.
        self._masks: Tuple[int, ...] = tuple(
            c._mask for c in sorted(self.family, key=lex_sort_key)
        )
        # Per element, the members holding it, still in subset order.
        self._holding: Tuple[Tuple[int, ...], ...] = tuple(
            tuple([m for m in self._masks if m & bit])
            for bit in [1 << v for v in range(n + 1)]
        )

    def _l1_mask(self, n: int, xm: int, ym: int) -> Optional[int]:
        # Every candidate holds the least element of x.  The first one in
        # subset order is maximal, since a set precedes its proper subsets,
        # and it wins the tie-break.
        for m in self._holding[(xm & -xm).bit_length() - 1]:
            if not xm & ~m and not m & ~ym:
                return m
        return None

    def _l2_masks(self, n: int, ym: int) -> List[int]:
        kept: List[int] = []
        # In subset order every strict superset comes first, and so does a
        # maximal one above it: a candidate is maximal iff no kept one
        # contains it.
        for m in self._masks:
            if m & ~ym:
                continue
            if any(not m & ~k for k in kept):
                continue
            kept.append(m)
        return kept

    def l1(self, x: IdSet, y: IdSet) -> Optional[IdSet]:
        m = self._l1_mask(self.n, *_l1_query(self.n, x, y))
        return None if m is None else self._members[m]

    def l2(self, y: IdSet) -> List[IdSet]:
        return [self._members[m] for m in self._l2_masks(self.n, _mask_over(self.n, y))]

    def delta_hint(self) -> int:
        return len(self.family)


class GraphConnectivityOracle(SetSystemOracle):
    """Components are the non-empty vertex sets inducing a connected subgraph.

    The graph is simple and undirected, with vertices in ``[1, n]``; the
    constructor rejects a self-loop and an edge given twice, in either
    orientation.  Connectivity queries run an iterative breadth-first
    sweep restricted to the queried vertex set, entirely on bitmasks, so
    no recursion depth is involved however large the graph gets.
    Consecutive ``l1`` queries on one hull reuse the components already
    swept there.  The maximality probe runs no sweep: a connected set is
    maximal within ``y`` exactly when no vertex of ``y`` outside it is
    adjacent to it.
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
        # The components of the last l1 hull found so far, disjoint masks.
        # Each is a pure function of the hull, so the memo never changes an
        # answer; a new hull replaces the slot, which keeps it O(n).
        self._memo: Tuple[int, List[int]] = (-1, [])

    @property
    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """Vertex to sorted neighbor tuple, for inspection."""
        return {
            v: tuple(IdSet._from_mask(self.n, self._adj[v]))
            for v in range(1, self.n + 1)
        }

    def _component_mask(self, seed: int, ymask: int) -> int:
        comp = 0
        frontier = 1 << seed
        while frontier:
            comp |= frontier
            reach = 0
            m = frontier
            while m:
                lsb = m & -m
                reach |= self._adj[lsb.bit_length() - 1]
                m ^= lsb
            frontier = reach & ymask & ~comp
        return comp

    def _l1_mask(self, n: int, xm: int, ym: int) -> Optional[int]:
        memo = self._memo
        if memo[0] != ym:
            memo = (ym, [])
            self._memo = memo
        seed = (xm & -xm).bit_length() - 1
        for comp in memo[1]:
            if comp >> seed & 1:
                break
        else:
            comp = self._component_mask(seed, ym)
            memo[1].append(comp)
        if xm & ~comp:
            return None
        return comp

    def _maximal_mask(self, n: int, cm: int, ym: int) -> bool:
        # cm is connected, so it is maximal iff no vertex of ym - cm is
        # adjacent to it.  Walk the smaller side; stop at the first edge.
        out = ym & ~cm
        if out.bit_count() < cm.bit_count():
            walk, other = out, cm
        else:
            walk, other = cm, out
        adj = self._adj
        while walk:
            lsb = walk & -walk
            if adj[lsb.bit_length() - 1] & other:
                return False
            walk ^= lsb
        return True

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

    def l1(self, x: IdSet, y: IdSet) -> Optional[IdSet]:
        comp = self._l1_mask(self.n, *_l1_query(self.n, x, y))
        return None if comp is None else IdSet._from_mask(self.n, comp)

    def l2(self, y: IdSet) -> List[IdSet]:
        return [
            IdSet._from_mask(self.n, c)
            for c in self._l2_masks(self.n, _mask_over(self.n, y))
        ]

    def delta_hint(self) -> int:
        return self.n
