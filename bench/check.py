"""Independent checker for the CLI's JSON record stream.

Works from the instance document and the definitions alone; it never
imports ``polyenum``.  Sets are Python ints used as bitmasks, bit ``v``
standing for element (or item) ``v``.

A record ``{"elements": X, "items": I, "k": k}`` passes when:

* ``X`` is a solution by definition.  For a graph, ``X`` is a connected
  component of the subgraph induced by the vertices carrying every item
  of ``X``; for an explicit family, ``X`` is a member that is maximal
  among the members inside that hull.  In components mode ``X`` is any
  component: a connected vertex set or a member.
* ``I`` is the common item set of ``X`` (its complement in components
  mode) and ``k`` its minimum, 0 when empty.
* ``X`` has not been emitted before.

The whole stream must also be complete: the emitted sets equal the
solution family worked out here from the definition, or, for a cycle in
components mode, number exactly n(n-1)+1.  Order is pinned by the sha256
of the stream, compared with a digest recorded for the workload and seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Set


def _mask(ids: Iterable[int]) -> int:
    m = 0
    for v in ids:
        m |= 1 << v
    return m


def _ids(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def digest(lines: Iterable[bytes]) -> str:
    """sha256 over the raw record bytes, newlines included."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line)
    return h.hexdigest()


def check_order(streams: List[List[bytes]], recorded: Optional[str]) -> List[str]:
    """Compare the digest of all documents' streams, in order, with the record.

    Only the order of records is left for this test to catch; everything
    else is caught by :func:`check_stream`.  A missing record is a problem
    too, so that the order is never left unchecked.
    """
    got = digest(line for lines in streams for line in lines)
    if recorded is None:
        return [f"order: no digest recorded to compare {got[:16]} with"]
    if got == recorded:
        return []
    return [f"order: stream digest {got[:16]} differs from the recorded {recorded[:16]}"]


class _Instance:
    """Bitmask view of one document."""

    def __init__(self, doc: dict, components: bool) -> None:
        self.n = n = doc["elements"]
        self.components = components
        self.full = (1 << (n + 1)) - 2
        system = doc["system"]
        self.kind = system["kind"]
        if self.kind == "graph":
            self.adj = [0] * (n + 1)
            for u, v in system["edges"]:
                self.adj[u] |= 1 << v
                self.adj[v] |= 1 << u
        else:
            self.members = [_mask(c) for c in system["components"]]
            self.member_set = set(self.members)
        if components:
            self.q = n
        else:
            self.q = doc["items"]
            self.sigma = [0] + [_mask(row) for row in doc["sigma"]]
            self.item_elems = [self.full] + [0] * self.q
            for v in range(1, n + 1):
                for i in _ids(self.sigma[v]):
                    self.item_elems[i] |= 1 << v

    def items_of(self, x: int) -> int:
        if self.components:
            return ((1 << (self.q + 1)) - 2) & ~x
        m = (1 << (self.q + 1)) - 2
        for v in _ids(x):
            m &= self.sigma[v]
        return m

    def hull(self, items: int) -> int:
        m = self.full
        for i in _ids(items):
            m &= self.item_elems[i]
        return m

    def component(self, seed: int, within: int) -> int:
        """Vertices reachable from ``seed`` inside ``within``."""
        comp = 0
        frontier = 1 << seed
        while frontier:
            comp |= frontier
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= self.adj[low.bit_length() - 1]
                m ^= low
            frontier = reach & within & ~comp
        return comp

    def is_component(self, x: int) -> bool:
        if self.kind == "graph":
            return self.component((x & -x).bit_length() - 1, x) == x
        return x in self.member_set

    def is_solution(self, x: int) -> bool:
        if self.components:
            return self.is_component(x)
        hull = self.hull(self.items_of(x))
        if self.kind == "graph":
            return self.component((x & -x).bit_length() - 1, hull) == x
        if x not in self.member_set:
            return False
        return not any(m != x and m & x == x and m & ~hull == 0 for m in self.members)

    def solutions(self) -> Optional[Set[int]]:
        """Every solution, or None where only a count is known."""
        if self.components:
            return set(self.members) if self.kind == "explicit" else None
        if self.kind == "explicit":
            return {x for x in self.members if self.is_solution(x)}
        return self._graph_solutions()

    def _graph_solutions(self) -> Set[int]:
        # The solutions are the connected components of G[V_I] over all
        # item sets I.  Any solution Y is reached from I = {} by a chain:
        # the component of G[V_I] holding Y has items J inside items(Y);
        # either it is Y, or I' = J plus one item of Y not in J is a
        # strictly larger item set still inside items(Y).
        found: Set[int] = set()
        seen = {0}
        stack = [0]
        while stack:
            items = stack.pop()
            left = self.hull(items)
            while left:
                comp = self.component((left & -left).bit_length() - 1, left)
                left &= ~comp
                found.add(comp)
                closed = self.items_of(comp)
                for j in range(1, self.q + 1):
                    nxt = closed | (1 << j)
                    if nxt != closed and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return found

    def expected_count(self) -> Optional[int]:
        """Component count of a cycle graph, the one case known in closed form."""
        if self.kind != "graph" or not self.components:
            return None
        n = self.n
        if n < 3 or any(self.adj[v].bit_count() != 2 for v in range(1, n + 1)):
            return None
        if self.component(1, self.full) != self.full:
            return None
        return n * (n - 1) + 1


def check_stream(
    doc: dict,
    lines: List[bytes],
    components: bool,
) -> List[str]:
    """Problems found in one document's record stream; empty means it passed.

    Each problem starts with its kind: ``malformed``, ``items``,
    ``not a solution``, ``duplicate``, ``missing``, ``unexpected`` or
    ``count`` (:func:`check_order` adds ``order``).
    """
    inst = _Instance(doc, components)
    problems: List[str] = []
    emitted: Dict[int, int] = {}
    for idx, line in enumerate(lines):
        where = f"record {idx}"
        try:
            rec = json.loads(line)
        except ValueError:
            problems.append(f"malformed: {where}: not JSON")
            continue
        if not isinstance(rec, dict) or set(rec) != {"elements", "items", "k"}:
            problems.append(f"malformed: {where}: {line[:80]!r}")
            continue
        elems = rec["elements"]
        if (
            not isinstance(elems, list)
            or not elems
            or any(not isinstance(v, int) or not 1 <= v <= inst.n for v in elems)
            or elems != sorted(set(elems))
        ):
            problems.append(f"malformed: {where}: elements {elems!r}")
            continue
        x = _mask(elems)
        items = inst.items_of(x)
        want_items = _ids(items)
        want_k = want_items[0] if want_items else 0
        if rec["items"] != want_items or rec["k"] != want_k:
            problems.append(
                f"items: {where}: got items {rec['items']} k {rec['k']}, "
                f"expected items {want_items} k {want_k}"
            )
        if not inst.is_solution(x):
            problems.append(f"not a solution: {where}: {elems}")
        if x in emitted:
            problems.append(f"duplicate: {where} repeats record {emitted[x]}: {elems}")
        else:
            emitted[x] = idx
    expected = inst.solutions()
    if expected is not None:
        missing = expected.difference(emitted)
        extra = set(emitted).difference(expected)
        if missing:
            problems.append(
                f"missing: {len(missing)} solutions never emitted, "
                f"e.g. {_ids(min(missing))[:10]}"
            )
        if extra:
            problems.append(f"unexpected: {len(extra)} emitted sets are not solutions")
    else:
        want = inst.expected_count()
        if want is None:
            problems.append("count: no completeness reference for this document")
        elif len(lines) != want:
            problems.append(f"count: {len(lines)} records, expected {want}")
    return problems
