"""Enumerating every component of a set system, maximal or not.

The trick is an instance whose items mirror the elements: element ``v``
carries every item except ``v`` itself.  The common item set of a set
``x`` is then the complement of ``x``, so any strict superset strictly
shrinks it, which makes every component a solution.  Running the solution
enumerator on that instance therefore yields exactly the component family.
The parent of a component ``c`` in group ``k`` is ``c`` plus its greatest
neighbour but ``k``, so with a backend that answers ``_cut_parts`` the
instance lists each node's children in closed form from that one hook.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import Instance, OracleStats, SetSystemOracle, VolumeFunction, check_universe
from .enumerator import EmitSink, enumerate_all


class ReducedInstance(Instance):
    """Instance whose attribute map is the complement map over ``[1, n]``.

    The item universe has the same size as the element universe, and all
    attribute queries are complements of bitmasks; the row-per-element
    attribute table is never materialized (it would be quadratic).
    """

    def __init__(self, n: int, oracle: SetSystemOracle) -> None:
        check_universe(n, oracle)
        # Instance.__init__ is skipped on purpose: it would build the
        # attribute table this class exists to avoid.
        self.n = n
        self.q = n
        self.oracle = oracle
        self._full = (1 << (n + 1)) - 2
        # Element v carries every item but v, so with n >= 2 each item is
        # carried; the one element of a 1-element universe carries none.
        self._carried = self._full if n >= 2 else 0

    # Only the mask algebra changes (items and elements share the universe
    # mask ``_full``); the public methods inherited from Instance check
    # their arguments and wrap these.

    def _slice_mask(self, i: int) -> int:
        return self._full & ~(1 << i)

    def _common_mask(self, xm: int) -> int:
        return self._full & ~xm

    _sigma_mask = _slice_mask
    _hull_mask = _common_mask

    def _children(self, stats: OracleStats, tm: int, k: int) -> Optional[Iterator[int]]:
        parts = self.oracle._cut_parts(self.n, tm)
        return None if parts is None else self._child_scan(stats, tm, k, *parts)

    def _child_scan(self, stats: OracleStats, tm: int, k: int, cuts: Dict[int, List[int]],
                    outer: List[Tuple[int, int]]) -> Iterator[int]:
        # The generic scan asks l2(tm - j) for each j of tm above k; an
        # answer cm passes the j filter iff it holds tm & [1, j): the parts
        # listed for j = min(tm), or else tm - j - cut when cut, what j
        # cuts off (nothing without an entry), holds nothing below j.  The
        # parent of cm is cm | u, u = j or the first outer x above j meeting
        # cm, so cm is a child iff tm - cm = {u}: of several parts none is,
        # so their order is free.  Otherwise the item pass, which drops
        # every item but k and u, ends at the first element of tm - cm - u.
        low, ym = tm & -tm, self._slice_mask(k)
        rest = tm & -(2 << k)
        while rest:
            jbit = rest & -rest
            rest ^= jbit
            if tm == jbit:
                continue
            stats.l2_calls += 1  # l2(tm - j), answered from the cuts
            j = jbit.bit_length() - 1
            parts = cuts.get(j, ())
            if jbit == low:
                cands: Sequence[int] = parts
            else:
                cut = sum(parts)  # the parts are disjoint
                cands = () if cut & (jbit - 1) else (tm ^ jbit ^ cut,)
            for cm in cands:
                miss = tm & ~cm & ~jbit
                for x, attach in outer:
                    if x < j:
                        break
                    if attach & cm:  # u = x lies outside tm, so j is missed too
                        miss |= jbit
                        break
                if miss:
                    stats.l1_calls += (ym & ~cm & ((miss & -miss) * 2 - 1)).bit_count()
                else:
                    stats.l1_calls += (ym & ~cm).bit_count() + 2
                    yield cm


def enumerate_components(
    oracle: SetSystemOracle,
    n: int,
    rho: Optional[VolumeFunction] = None,
    sink: Optional[EmitSink] = None,
    stats: Optional[OracleStats] = None,
) -> None:
    """Emit every kept component of the system, each exactly once."""
    enumerate_all(ReducedInstance(n, oracle), rho=rho, sink=sink, stats=stats)
