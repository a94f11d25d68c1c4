"""Ground truth, generators and a logging backend for desk-scale verification.

Everything here works from first principles: solutions are found by
checking the definition against every strict superset component, never by
calling the enumerator.  Component families are materialized exhaustively,
which bounds graph universes to a dozen vertices or so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import ContractError, IdSet, Instance, OracleStats, SetSystemOracle
from .core import lex_sort_key, subset_lex_less
from .enumerator import Solution
from .oracles import ExplicitFamilyOracle, GraphConnectivityOracle

MATERIALIZE_BOUND = 12


def _mask_connected(adj: List[int], mask: int) -> bool:
    seed = mask & -mask
    comp = 0
    frontier = seed
    while frontier:
        comp |= frontier
        reach = 0
        m = frontier
        while m:
            lsb = m & -m
            reach |= adj[lsb.bit_length() - 1]
            m ^= lsb
        frontier = reach & mask & ~comp
    return comp == mask


def materialize_components(oracle, n: int) -> List[IdSet]:
    """Every component of the backend, listed outright.

    For a graph backend this walks all non-empty vertex subsets and keeps
    the connected ones, so it refuses universes above
    ``MATERIALIZE_BOUND`` vertices.
    """
    if isinstance(oracle, ExplicitFamilyOracle):
        return list(oracle.family)
    if isinstance(oracle, GraphConnectivityOracle):
        if n > MATERIALIZE_BOUND:
            raise ContractError(
                f"graph too large to materialize: {n} > {MATERIALIZE_BOUND} vertices"
            )
        out = []
        for m in range(1, 1 << n):
            mask = m << 1
            if _mask_connected(oracle._adj, mask):
                out.append(IdSet._from_mask(n, mask))
        return out
    raise ContractError(f"cannot materialize components of {type(oracle).__name__}")


def brute_force_solutions(inst: Instance) -> List[Solution]:
    """All solutions, straight from the definition.

    A component passes when no strict superset component has the same
    common item set.  Quadratic in the family size; sorted by group id and
    then by the subset order on elements.
    """
    comps = materialize_components(inst.oracle, inst.n)
    items_of = {c: inst.common_item_set(c) for c in comps}
    sols = []
    for c in comps:
        if all(items_of[d] != items_of[c] for d in comps if c < d):
            sols.append(Solution(c, items_of[c], items_of[c].min_id()))
    sols.sort(key=lambda s: (s.k, lex_sort_key(s.elements)))
    return sols


def brute_force_parent(
    inst: Instance, s: Solution, solutions: Optional[List[Solution]] = None
) -> Solution:
    """The parent of ``s`` found by exhaustive search.

    Scans every solution of the instance for strict supersets of ``s`` in
    the same group, keeps the inclusion-minimal ones, and returns the
    least under the (items, elements) lexicographic pair order.  Raises
    :class:`ContractError` when there is none, i.e. when ``s`` is a root.
    Pass ``solutions`` to reuse an already computed solution list.
    """
    sols = brute_force_solutions(inst) if solutions is None else solutions
    supers = [t for t in sols if t.k == s.k and s.elements < t.elements]
    if not supers:
        raise ContractError("input has no strict superset solution in its group")
    minimal = [t for t in supers if not any(u.elements < t.elements for u in supers)]
    best = minimal[0]
    for t in minimal[1:]:
        if subset_lex_less(t.items, best.items) or (
            t.items == best.items and subset_lex_less(t.elements, best.elements)
        ):
            best = t
    return best


class PublicOnly(SetSystemOracle):
    """A custom backend over ``inner`` that logs every query it is asked.

    It implements only ``l1``, ``l2`` and ``delta_hint``, each forwarded to
    ``inner``, and has no ``n``: the minimal custom backend, reached through
    every mask hook's default.  ``log`` lists the queries in the order
    asked, as masks: ``("l1", xm, ym)`` or ``("l2", ym)``.
    """

    def __init__(self, inner: SetSystemOracle) -> None:
        self.inner = inner
        self.log: List[tuple] = []

    def l1(self, x: IdSet, y: IdSet) -> Optional[IdSet]:
        self.log.append(("l1", x._mask, y._mask))
        return self.inner.l1(x, y)

    def l2(self, y: IdSet) -> List[IdSet]:
        self.log.append(("l2", y._mask))
        return self.inner.l2(y)

    def delta_hint(self) -> int:
        return self.inner.delta_hint()


def max_interoutput_traversals(stats: OracleStats) -> int:
    """Largest traversal-counter jump between consecutive emissions (0 below two)."""
    return stats.max_interoutput_traversals


@dataclass(frozen=True)
class RandomSpec:
    """Shape of a random instance; equal specs generate equal instances."""

    kind: str  # "explicit" or "graph"
    n_range: Tuple[int, int] = (1, 7)
    q_range: Tuple[int, int] = (1, 5)
    max_family: int = 20
    edge_prob: float = 0.4
    seed: int = 0


def random_instance(spec: RandomSpec) -> Instance:
    """Seeded random instance; each (element, item) pair holds with prob 1/2."""
    if spec.kind not in ("explicit", "graph"):
        raise ValueError(f"unknown system kind {spec.kind!r}")
    rng = random.Random(spec.seed)
    n = rng.randint(*spec.n_range)
    q = rng.randint(*spec.q_range)
    sigma = [
        [i for i in range(1, q + 1) if rng.random() < 0.5] for _ in range(n)
    ]
    if spec.kind == "explicit":
        target = rng.randint(1, spec.max_family)
        masks = set()
        for _ in range(4 * target):
            m = rng.getrandbits(n) << 1
            if m:
                masks.add(m)
            if len(masks) == target:
                break
        if not masks:
            masks.add((1 << (n + 1)) - 2)
        family = [IdSet._from_mask(n, m) for m in sorted(masks)]
        oracle = ExplicitFamilyOracle(n, family)
    else:
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < spec.edge_prob
        ]
        oracle = GraphConnectivityOracle(n, edges)
    return Instance(n, q, sigma, oracle)
