"""Small-universe set algebra and the shared domain types.

Elements live in ``[1, n]`` and items (attributes) in ``[1, q]``.  Sets of
either kind are immutable bit-vectors, so the subset tests and
intersections that dominate the enumeration loops are single integer
operations.  The id 0 is reserved as a sentinel: ``IdSet.min_id`` of an
empty set is 0, and the element slice for item 0 is the whole universe.

Everything here is immutable after construction except :class:`OracleStats`,
which is confined to one enumeration run.  Instances, oracles and sets are
safe to share read-only across threads.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class IdSet:
    """Immutable sorted set of integer ids drawn from ``[1, capacity]``.

    Backed by a bitmask (bit ``i`` set means id ``i`` is a member).  All
    algebra returns new sets; iteration is in ascending id order.  Binary
    operations require both operands to share the same capacity.
    """

    __slots__ = ("_mask", "capacity")

    def __init__(self, capacity: int, ids: Iterable[int] = ()) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        mask = 0
        for i in ids:
            if not 1 <= i <= capacity:
                raise ValueError(f"id {i} outside [1, {capacity}]")
            mask |= 1 << i
        self._mask = mask
        self.capacity = capacity

    @classmethod
    def _from_mask(cls, capacity: int, mask: int) -> "IdSet":
        s = object.__new__(cls)
        s._mask = mask
        s.capacity = capacity
        return s

    @classmethod
    def full(cls, capacity: int) -> "IdSet":
        return cls._from_mask(capacity, (1 << (capacity + 1)) - 2)

    def _require_same_universe(self, other: "IdSet") -> None:
        if self.capacity != other.capacity:
            raise ValueError(
                f"mixed universes: capacity {self.capacity} vs {other.capacity}"
            )

    def min_id(self) -> int:
        """Smallest member, or the sentinel 0 when the set is empty."""
        if self._mask == 0:
            return 0
        return (self._mask & -self._mask).bit_length() - 1

    def __contains__(self, i: int) -> bool:
        return 0 < i <= self.capacity and bool((self._mask >> i) & 1)

    def __iter__(self) -> Iterator[int]:
        m = self._mask
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __or__(self, other: "IdSet") -> "IdSet":
        self._require_same_universe(other)
        return IdSet._from_mask(self.capacity, self._mask | other._mask)

    def __and__(self, other: "IdSet") -> "IdSet":
        self._require_same_universe(other)
        return IdSet._from_mask(self.capacity, self._mask & other._mask)

    def __sub__(self, other: "IdSet") -> "IdSet":
        self._require_same_universe(other)
        return IdSet._from_mask(self.capacity, self._mask & ~other._mask)

    def issubset(self, other: "IdSet") -> bool:
        self._require_same_universe(other)
        return self._mask & ~other._mask == 0

    def issuperset(self, other: "IdSet") -> bool:
        return other.issubset(self)

    def __le__(self, other: "IdSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "IdSet") -> bool:
        return self.issubset(other) and self._mask != other._mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdSet):
            return NotImplemented
        return self._mask == other._mask and self.capacity == other.capacity

    def __hash__(self) -> int:
        return hash((self._mask, self.capacity))

    def __repr__(self) -> str:
        return f"IdSet({self.capacity}, {list(self)})"


def subset_lex_less(a: IdSet, b: IdSet) -> bool:
    """Strict total order on subsets of one universe.

    ``a`` precedes ``b`` exactly when the smallest id on which they differ
    belongs to ``a``.  A consequence worth remembering: a set precedes all
    of its proper subsets.
    """
    a._require_same_universe(b)
    d = a._mask ^ b._mask
    if d == 0:
        return False
    return bool(a._mask & (d & -d))


def subset_lex_leq(a: IdSet, b: IdSet) -> bool:
    """Reflexive companion of :func:`subset_lex_less`."""
    return a == b or subset_lex_less(a, b)


def lex_sort_key(s: IdSet) -> int:
    """Sort key realizing subset_lex_less: ascending keys follow the order."""
    # Bit i of the mask moves to bit capacity - i, so a smaller id weighs
    # more; reversing the mask's bit string does that in one step.
    return -int(format(s._mask, f"0{s.capacity + 1}b")[::-1], 2)


def _answer_mask(n: int, answer: object, query: str) -> int:
    if not isinstance(answer, IdSet) or answer.capacity != n:
        raise ContractError(
            f"{query} answered {answer!r}, not a set over the instance's "
            f"elements [1, {n}]"
        )
    if not answer:
        raise ContractError(f"{query} answered the empty set; components are non-empty")
    return answer._mask


class SetSystemOracle:
    """Access to a set system over ``[1, n]`` through two maximality queries.

    A backend owns some family of non-empty "components" over the element
    universe and answers:

    * ``l1(x, y)``: one component ``z`` with ``x <= z <= y`` that is
      maximal within ``y``, or ``None`` when no component squeezes between
      ``x`` and ``y``.  Requires non-empty ``x`` with ``x <= y``.
    * ``l2(y)``: every inclusion-maximal component contained in ``y``,
      duplicate-free and sorted by :func:`subset_lex_less`.

    Backends must be deterministic: repeated identical queries return
    identical answers, so whole traversals replay bit for bit.

    The enumerator asks through ``_l1_mask`` and ``_l2_masks``, which take
    and return bitmasks over ``[1, n]``.  Their defaults wrap the masks in
    :class:`IdSet` and call ``l1``/``l2``, so a custom backend implements
    only those two; an answer that is not a set over ``[1, n]``, or is
    empty, raises :class:`ContractError`.  That is the one check the
    enumerator makes on a backend: every query it builds from non-empty
    components meets the ``l1`` precondition by construction.  The
    shipped backends answer on masks directly.

    Three optional hooks, ``_neighbours``, ``_l1_growth`` and
    ``_cut_parts``, each state their contract in their own docstring.
    Both shipped backends override ``_l1_growth``, the graph backend all three.
    """

    def l1(self, x: IdSet, y: IdSet) -> Optional[IdSet]:
        raise NotImplementedError

    def l2(self, y: IdSet) -> List[IdSet]:
        raise NotImplementedError

    def delta_hint(self) -> int:
        """Coarse upper bound on ``len(l2(y))`` for any query; reporting only."""
        raise NotImplementedError

    def _l1_mask(self, n: int, xm: int, ym: int) -> Optional[int]:
        """``l1`` on masks over ``[1, n]``; the caller meets the precondition."""
        z = self.l1(IdSet._from_mask(n, xm), IdSet._from_mask(n, ym))
        return None if z is None else _answer_mask(n, z, "l1")

    def _l2_masks(self, n: int, ym: int) -> List[int]:
        """``l2`` on masks over ``[1, n]``, in the same order."""
        return [_answer_mask(n, c, "l2") for c in self.l2(IdSet._from_mask(n, ym))]

    def _cut_parts(self, n: int,
                   tm: int) -> Optional[Tuple[Dict[int, List[int]], List[Tuple[int, int]]]]:
        """The cut parts and the outer neighbours of the component ``tm``, or ``None``.

        The components-mode child scan asks it once per node ``tm`` and then
        asks no ``l2``.  An answer ``(cuts, outer)`` maps each ``j`` that
        splits ``tm`` to the components of ``tm - j`` not holding ``min(tm)``,
        and ``min(tm)`` to every component of ``tm - min(tm)``; a ``j`` left
        out, ``min(tm)`` too, cuts off nothing.  ``outer`` lists each ``x`` of
        ``N(tm) - tm``, highest first, as ``(x, a)``, ``a`` its neighbours in
        ``tm``: a component ``c`` of ``tm - j`` plus ``x`` is one iff ``a & c``.
        The default ``None`` leaves one ``_l2_masks(n, tm - j)`` query per
        ``j``.  ``OracleStats`` counts one ``l2`` per ``j`` either way.
        """
        return None

    def _l1_growth(self, n: int, sm: int, ym: int) -> Iterator[int]:
        """The least component of ``ym`` holding ``sm``, outside ``sm``, ascending.

        The parent test ``_Run._parent`` asks it once per call that gets past
        its item pass, with ``sm`` the component it asks about and ``ym`` the
        hull that pass settled on, which holds ``sm``.  Its element pass grows
        ``sm`` through ``ym - sm`` in ascending order, keeping each bit ``b``
        with ``_l1_mask(n, grown | b, ym)`` not ``None``.  A component between
        ``sm`` and ``ym`` holds the first element where it differs from what
        the pass grows, which the pass would keep: none precedes it.  The
        default asks ``_l1_mask`` bit by bit, only when the next kept element
        is asked for, so a pass stopped early asks nothing more.
        ``OracleStats`` counts one ``l1`` for every element passed over, the
        kept one included, and for all those left when it is exhausted.
        """
        grown = sm
        rest = ym & ~sm
        while rest:
            bit = rest & -rest
            rest ^= bit
            if self._l1_mask(n, grown | bit, ym) is not None:
                grown |= bit
                yield bit

    def _neighbours(self, n: int, cm: int, ym: int) -> Optional[int]:
        """A witness for the maximality of the component ``cm``, or ``None``.

        The parent test ``_Run._parent`` asks it once per call, with ``cm``
        the component asked about and ``ym`` the slice of its group's item,
        which holds ``cm``.  An answer ``w`` is a mask inside ``ym - cm``
        such that ``cm | b`` is a component for every bit ``b`` of ``w``,
        and ``cm`` is maximal within any ``y`` inside ``ym`` that holds
        ``cm`` exactly when ``not w & y``.  The parent test then answers
        each maximality question with one AND.  The default answers
        ``None``, and the parent test asks ``_l1_mask(n, cm, y) == cm``
        for each ``y`` instead.  ``OracleStats`` counts the logical ``l1``
        calls the test stands for either way, and nothing for this call.
        """
        return None


class VolumeFunction:
    """Monotone pruning predicate over element sets.

    Implementations must satisfy: if ``positive(x)`` and ``x <= y`` then
    ``positive(y)``.  The enumerator relies on the contrapositive to prune
    whole subtrees, so a non-monotone implementation silently loses output.
    """

    def positive(self, elements: IdSet) -> bool:
        raise NotImplementedError


class SizeAbove(VolumeFunction):
    """Keep sets with more than ``threshold`` elements."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def positive(self, elements: IdSet) -> bool:
        return len(elements) > self.threshold


class OracleStats:
    """Counters for oracle and traversal activity during one run.

    ``traversal_calls`` counts descent invocations (one per visited tree
    node, including the top-level call for each root).  ``outputs`` counts
    emitted solutions, and ``max_interoutput_traversals`` is the largest
    traversal-counter jump between two consecutive outputs, 0 until there
    are two.  Every field is a running integer, so a run's stats take O(1)
    memory however many solutions it emits.  A caller that needs the
    counters at each output reads them in its sink: the enumerator updates
    the stats before it calls the sink.  Counters only ever increase
    within a run; the object is not shared between concurrent runs.
    """

    def __init__(self) -> None:
        self.l1_calls = 0
        self.l2_calls = 0
        self.rho_calls = 0
        self.traversal_calls = 0
        self.outputs = 0
        self.max_interoutput_traversals = 0
        self._traversals_at_output = 0

    def record_output(self) -> None:
        if self.outputs:
            jump = self.traversal_calls - self._traversals_at_output
            if jump > self.max_interoutput_traversals:
                self.max_interoutput_traversals = jump
        self._traversals_at_output = self.traversal_calls
        self.outputs += 1

    def as_dict(self) -> dict:
        return {
            "l1_calls": self.l1_calls,
            "l2_calls": self.l2_calls,
            "rho_calls": self.rho_calls,
            "traversal_calls": self.traversal_calls,
            "outputs": self.outputs,
            "max_interoutput_traversals": self.max_interoutput_traversals,
        }


def check_universe(n: int, oracle: SetSystemOracle) -> None:
    """An instance's ``[1, n]``: non-empty, and the oracle's own if it has an ``n``."""
    if n < 1:
        raise ValueError("an instance needs at least one element")
    m = getattr(oracle, "n", n)
    if m != n:
        raise ValueError(f"oracle over [1, {m}] given to an instance over [1, {n}]")


class Instance:
    """An element universe, an item universe, per-element attributes, an oracle.

    ``sigma`` is given as a sequence of ``n`` iterables; row ``v - 1``
    holds the item ids carried by element ``v``, each within ``[1, q]``
    and none repeated.  Element slices are precomputed, keyed by item,
    for the items some element carries (``_carried``) only, so attribute
    queries are mask intersections and no table is sized by ``q``.
    An oracle with an ``n`` attribute, as both shipped backends have, must
    be over ``[1, n]`` too.
    """

    def __init__(
        self,
        n: int,
        q: int,
        sigma: Sequence[Iterable[int]],
        oracle: SetSystemOracle,
    ) -> None:
        check_universe(n, oracle)
        if q < 1:
            raise ValueError("an instance needs at least one item")
        if len(sigma) != n:
            raise ValueError(f"sigma must have {n} rows, got {len(sigma)}")
        self.n = n
        self.q = q
        self.oracle = oracle
        self._sigma_masks = [0] * (n + 1)
        self._item_masks = {0: (1 << (n + 1)) - 2}
        self._carried = 0
        for v, row in enumerate(sigma, start=1):
            m = 0
            for i in row:
                if not 1 <= i <= q:
                    raise ValueError(f"sigma[{v - 1}]: item {i} outside [1, {q}]")
                if m >> i & 1:
                    raise ValueError(f"sigma[{v - 1}]: repeated item {i}")
                m |= 1 << i
                self._item_masks[i] = self._item_masks.get(i, 0) | 1 << v
            self._sigma_masks[v] = m
            self._carried |= m

    # The attribute algebra on masks, which the enumerator calls directly.
    # Arguments are trusted: the public methods below check them.

    def _sigma_mask(self, v: int) -> int:
        """Items of element ``v``."""
        return self._sigma_masks[v]

    def _slice_mask(self, i: int) -> int:
        """Elements carrying item ``i``; item 0 means all."""
        return self._item_masks.get(i, 0)

    def _common_mask(self, xm: int) -> int:
        """Items carried by every element of the non-empty ``xm``."""
        # AND the rows of x's elements, stopping once no item is left.
        # Testing x against each of the q slices costs q tests every time;
        # on the reference G(300, 3/n) instance with q = 14, 17,141 of the
        # 28,298 sets asked about are single elements, and the walk reads
        # 2.0 rows per set on average.  Every row lies inside the carried
        # items, so starting from those costs nothing in the declared q.
        m = self._carried
        rows = self._sigma_masks
        while xm and m:
            lsb = xm & -xm
            m &= rows[lsb.bit_length() - 1]
            xm ^= lsb
        return m

    def _hull_mask(self, items: int) -> int:
        """Elements carrying every item of ``items``; all of them when empty."""
        im = self._item_masks
        m = im[0]
        while items and m:
            lsb = items & -items
            m &= im.get(lsb.bit_length() - 1, 0)
            items ^= lsb
        return m

    def _children(self, stats: OracleStats, tm: int, k: int) -> Optional[Iterator[int]]:
        """The children of the node ``tm`` in group ``k``, or ``None``.

        An answer yields their element masks in traversal order and counts
        in ``stats`` what the generic child scan counts.  Here that scan runs.
        """
        return None

    def sigma(self, v: int) -> IdSet:
        """Attribute set of element ``v``."""
        if not 1 <= v <= self.n:
            raise ValueError(f"element {v} outside [1, {self.n}]")
        return IdSet._from_mask(self.q, self._sigma_mask(v))

    def common_item_set(self, x: IdSet) -> IdSet:
        """Items carried by every element of ``x``.

        Rejects empty ``x``: the common attribute set of nothing is
        deliberately undefined here, so a caller that would silently get
        the full item universe fails loudly instead.
        """
        if not x:
            raise ContractError("common_item_set of an empty element set")
        if x.capacity != self.n:
            raise ValueError("element set from a different universe")
        return IdSet._from_mask(self.q, self._common_mask(x._mask))

    def elements_with_item(self, i: int) -> IdSet:
        """Elements whose attributes include item ``i``; item 0 means all."""
        if not 0 <= i <= self.q:
            raise ValueError(f"item {i} outside [0, {self.q}]")
        return IdSet._from_mask(self.n, self._slice_mask(i))

    def elements_with_items(self, items: IdSet) -> IdSet:
        """Elements whose attributes include every member of ``items``.

        An empty ``items`` selects the whole universe.
        """
        if items.capacity != self.q:
            raise ValueError("item set from a different universe")
        return IdSet._from_mask(self.n, self._hull_mask(items._mask))
