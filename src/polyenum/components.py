"""Enumerating every component of a set system, maximal or not.

The trick is an instance whose items mirror the elements: element ``v``
carries every item except ``v`` itself.  The common item set of a set
``x`` is then the complement of ``x``, so any strict superset strictly
shrinks it, which makes every component a solution.  Running the solution
enumerator on that instance therefore yields exactly the component family.
"""

from __future__ import annotations

from typing import Callable, List, Optional

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

    def _sigma_mask(self, v: int) -> int:
        return self._full & ~(1 << v)

    def _slice_mask(self, i: int) -> int:
        return self._full & ~(1 << i)

    def _common_mask(self, xm: int) -> int:
        return self._full & ~xm

    def _hull_mask(self, items: int) -> int:
        return self._full & ~items

    def _l2_by_slice(self, tm: int) -> Callable[[int], List[int]]:
        # The slice of j is the universe minus j, and the scan asks only
        # for the j in tm, so each query is l2(tm - j): the oracle's hook.
        return self.oracle._l2_without(self.n, tm)

    def _parent_from_witness(
        self, stats: OracleStats, sm: int, k: int, w: Optional[int], target: Optional[int]
    ) -> Optional[int]:
        # The items of sm are V - sm and slice(i) is V - i.  The item pass
        # drops item i from the hull while sm stays short of maximal, that
        # is while some bit of w is left; so it drops every item but
        # u = max(w), and the hull ends as sm | u.  By the witness contract
        # that is a component, so the element pass keeps u and its
        # solution test says yes.  With a target, the first dropped item of
        # the target ends the test.  A zero w means sm is a root: the
        # passes raise.  Every hull of sm is sm, so no solution test comes
        # first.
        if not w:
            return None
        u = 1 << (w.bit_length() - 1)
        rest = self._full & ~sm & ~(1 << k)
        if target is not None:
            miss = target & ~sm & ~u
            if miss:
                first = miss & -miss
                stats.l1_calls += (rest & ((first << 1) - 1)).bit_count()
                return 0
        stats.l1_calls += rest.bit_count() + 2
        return sm | u


def enumerate_components(
    oracle: SetSystemOracle,
    n: int,
    rho: Optional[VolumeFunction] = None,
    sink: Optional[EmitSink] = None,
    stats: Optional[OracleStats] = None,
) -> None:
    """Emit every kept component of the system, each exactly once."""
    enumerate_all(ReducedInstance(n, oracle), rho=rho, sink=sink, stats=stats)
