"""Family-tree enumeration of solutions.

A *solution* is a component whose common item set is inclusion-maximal:
every strictly larger component has a strictly smaller common item set.
Solutions are grouped by the minimum id ``k`` of their common item set
(``k = 0`` when it is empty), and each group is covered by a forest whose
roots are the maximal components of the slice of elements carrying item
``k``.  Every non-root solution has a unique parent: the lexicographically
least among its minimal strict superset solutions in the same group.

The traversal walks each tree from its root, regenerating children on the
fly through the oracle, and interleaves output with descent: a root's
children are emitted after their subtrees, its grandchildren before
theirs, and so on by generation.  That alternation bounds how many tree
nodes can be visited between two consecutive outputs, which is what makes
the delay (rather than just the total time) polynomial.  A volume
function prunes a child and its entire subtree at once; since descendants
are subsets of the child, monotonicity makes the pruning lossless.

Each run is strictly sequential: the emission order and the delay
accounting depend on it.  Distinct runs over the same (immutable) instance
can proceed in parallel with separate sinks and stats.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, NamedTuple, Optional

from .core import (
    ContractError,
    IdSet,
    Instance,
    OracleStats,
    SizeAbove,
    VolumeFunction,
)


class Solution(NamedTuple):
    """An emitted solution: its elements, their common items, and the group id.

    ``items`` is the common item set of ``elements`` and ``k`` its minimum
    member (0 when empty).  Solutions are immutable and hashable, so
    collections of them compare structurally in tests.
    """

    elements: IdSet
    items: IdSet
    k: int


# A sink receives each emitted solution exactly once, in traversal order.
# Any exception it raises aborts the run.
EmitSink = Callable[[Solution], None]


def make_solution(inst: Instance, elements: IdSet) -> Solution:
    """Bundle an element set with its common items and group id.

    Asks no query, so it does not check that ``elements`` is a solution.
    :func:`parent`, :func:`children` and :func:`descendants` do, and take
    only the records it builds: any other raises :class:`ContractError`.
    """
    items = inst.common_item_set(elements)
    return Solution(elements, items, items.min_id())


class _Run:
    """One enumeration run: instance plus counters, pruning and output.

    Everything inside a run works on bitmasks: ``is_solution``,
    ``_parent`` and the candidate scan take and return element and item
    masks.  :class:`Solution` objects are built only for the solutions
    handed out: roots, children and the public parent.

    Nothing here re-checks a query.  Each ``l1`` query asks about a
    non-empty component, or one grown from it, inside a hull that holds
    it, so it meets the precondition by construction.  The inputs are
    checked where they enter: a record by :func:`_solution_run`, so every
    node of a run is a solution, and a custom backend's answer by the
    :class:`SetSystemOracle` adapter, which rejects an empty component.
    """

    __slots__ = ("inst", "oracle", "n", "stats", "rho", "sink")

    def __init__(
        self,
        inst: Instance,
        stats: Optional[OracleStats] = None,
        rho: Optional[VolumeFunction] = None,
        sink: Optional[EmitSink] = None,
    ) -> None:
        self.inst = inst
        self.oracle = inst.oracle
        self.n = inst.n
        self.stats = stats if stats is not None else OracleStats()
        # Components are non-empty, so SizeAbove(0) keeps every one.
        self.rho = rho if rho is not None else SizeAbove(0)
        self.sink = sink

    def rho_positive(self, elements: IdSet) -> bool:
        self.stats.rho_calls += 1
        return self.rho.positive(elements)

    def emit(self, s: Solution) -> None:
        self.stats.record_output()
        if self.sink is not None:
            self.sink(s)

    def solution(self, cm: int, im: int) -> Solution:
        items = IdSet._from_mask(self.inst.q, im)
        return Solution(IdSet._from_mask(self.n, cm), items, items.min_id())

    def is_solution(self, xm: int, hull: int) -> bool:
        """Whether ``xm`` is maximal within ``hull``: one counted ``l1``.

        A component is a solution iff it is already maximal among the
        elements carrying all of its common items, so with that ``hull``
        this is the solution test; a non-component gets no.
        """
        self.stats.l1_calls += 1
        return self.oracle._l1_mask(self.n, xm, hull) == xm

    def _parent(self, sm: int, sim: int, k: int, target: Optional[int] = None) -> int:
        """Element mask of the parent of ``sm``, with items ``sim``, in group ``k``.

        Without ``target``, ``sm`` is a non-root solution.  With one, this
        is the child test: the component ``sm`` is a child of ``target``
        exactly when the result equals ``target``.  The answer is 0 as soon
        as a step rules that out, which is what makes the child test cheap:
        most candidates fail within a few oracle calls.  Both questions
        ask whether ``sm`` is maximal within hulls inside ``slice(k)``: one
        AND each against the backend's witness, or one ``l1`` each without
        one.
        """
        inst, oracle, n = self.inst, self.oracle, self.n
        hull = inst._slice_mask(k)
        w = oracle._neighbours(n, sm, hull)
        if w is None:
            def maximal_in(y: int) -> bool:
                return oracle._l1_mask(n, sm, y) == sm
        else:
            def maximal_in(y: int) -> bool:
                return not w & y
        # The solution test: sm is a solution iff it is maximal within the
        # hull of its items, which lies inside slice(k) and holds sm.  A
        # hull that is sm itself, as every hull is in components mode, asks
        # nothing.  The public parent() has tested its record already.
        items_hull = inst._hull_mask(sim)
        if target is not None and items_hull != sm:
            self.stats.l1_calls += 1
            if not maximal_in(items_hull):
                return 0
        # First pass: decide the parent's item set, one item at a time in
        # ascending order.  An item survives exactly when some component
        # strictly above s still carries the items kept so far plus it.
        # Only the hull of the kept items is needed later, and keeping an
        # item narrows it to that item's slice.  Items only accumulate, so
        # the hull only shrinks: once it loses part of the target, the
        # parent cannot be the target.  Every trial hull lies inside
        # slice(k) and holds s, so maximal_in answers them all; each item
        # probed counts as one l1.
        rest = sim & ~(1 << k)
        while rest:
            bit = rest & -rest
            rest ^= bit
            trial = hull & inst._slice_mask(bit.bit_length() - 1)
            self.stats.l1_calls += 1
            if not maximal_in(trial):
                hull = trial
                if target is not None and target & ~hull:
                    return 0
        # Second pass: grow the element set greedily in ascending id order.
        # An element is kept when some component within the hull still
        # contains everything grown so far plus it; the first grown set
        # that is itself a solution is the parent.  Each kept element
        # narrows the common items to its own.  The parent contains every
        # kept element, so keeping one outside the target settles the
        # answer.  A grown set need not be a component, so it is tested
        # with l1, not with maximal_in.  The oracle's growth hook
        # yields the kept elements; each element passed over, the kept one
        # included, and each one left at the end counts as the l1 query it
        # stands for.  The solution test's hull changes only when the
        # common items shrink.
        grown, items = sm, sim
        rest = hull & ~sm
        for bit in self.oracle._l1_growth(self.n, sm, hull):
            passed = rest & ((bit << 1) - 1)
            self.stats.l1_calls += passed.bit_count()
            rest ^= passed
            if target is not None and not target & bit:
                return 0
            grown |= bit
            kept = items & inst._sigma_mask(bit.bit_length() - 1)
            if kept != items:
                items, items_hull = kept, inst._hull_mask(kept)
            if self.is_solution(grown, items_hull):
                return grown
        self.stats.l1_calls += rest.bit_count()
        raise ContractError(
            "no strict superset solution found; the input is a root of its "
            "group (or the oracle backend is inconsistent)"
        )

    def child_candidates(self, t: Solution) -> Iterator[Solution]:
        """Yield the children of ``t`` in traversal order.

        For each item ``j`` above ``k = t.k`` that ``t`` does not share, the
        candidates are the maximal components of ``t`` restricted to the
        ``j``-carrying elements.  A candidate is a child when ``j`` is the
        least new item it gains over ``t`` (each child is generated for
        exactly one ``j``, and one outside group ``k`` gains an item below
        ``k < j``) and the child test ``_parent(c, items, k, t)`` returns
        ``t``'s elements.  A node in group 0, or with no such ``j``, has no
        children and asks nothing.  An instance that can list the children
        in closed form does so instead, with the same counts.
        """
        inst = self.inst
        tm, tim, k = t.elements._mask, t.items._mask, t.k
        # The items above k that t lacks and some element carries; the
        # others have no element in t's slice to ask about.
        rest = inst._carried & ~tim & -(2 << k)
        if not (k and rest):
            return
        cms = inst._children(self.stats, tm, k)
        if cms is not None:
            for cm in cms:
                yield self.solution(cm, inst._common_mask(cm))
            return
        while rest:
            jbit = rest & -rest
            rest ^= jbit
            ym = tm & inst._slice_mask(jbit.bit_length() - 1)
            if not ym:
                continue  # oracles only take non-empty queries
            self.stats.l2_calls += 1
            for cm in self.oracle._l2_masks(self.n, ym):
                im = inst._common_mask(cm)
                new = im & ~tim
                if new & -new != jbit:
                    continue  # generated for a smaller j
                if self._parent(cm, im, k, tm) == tm:
                    yield self.solution(cm, im)

    def descend(self, root: Solution) -> None:
        """Emit every kept descendant of ``root``, stack-based.

        Mirrors the recursive formulation exactly (same emission order,
        same counter timing) on an explicit stack, which fits tree paths of
        any length.  Each frame holds a node's lazy candidate iterator and
        the solution to emit when the frame finishes, if any; the top
        frame's children are ``len(stack)`` generations below the root.
        """
        self.stats.traversal_calls += 1
        stack: List[tuple] = [(self.child_candidates(root), None)]
        while stack:
            child = next(stack[-1][0], None)
            if child is None:
                _, emit_on_pop = stack.pop()
                if emit_on_pop is not None:
                    self.emit(emit_on_pop)
                continue
            if not self.rho_positive(child.elements):
                continue  # prunes the whole subtree below child
            before = len(stack) % 2 == 0  # even generations go first
            if before:
                self.emit(child)
            self.stats.traversal_calls += 1
            stack.append((self.child_candidates(child), None if before else child))

    def roots(self, k: int) -> int:
        """Emit group ``k``'s kept solutions and return a bound on the groups.

        The roots are the answer of one ``l2`` query on ``slice(k)``, all
        of it whatever their group.  Each root that belongs to the group is
        emitted and, when ``k > 0`` and some element carries an item above
        ``k``, its tree is traversed.  A solution inside a root carries the
        root's common items, so its group is at most their least, or ``q``
        when there are none; the result is the largest of these over the
        roots.  When no element carries item ``k`` there is nothing to do:
        the oracle is not queried at all and the result is 0.
        """
        inst = self.inst
        vk = inst._slice_mask(k)
        if not vk:
            return 0
        self.stats.l2_calls += 1
        last = 0
        for cm in self.oracle._l2_masks(self.n, vk):
            t = self.solution(cm, inst._common_mask(cm))
            if t.k == k and self.rho_positive(t.elements):
                self.emit(t)
                if k and inst._carried >> (k + 1):
                    self.descend(t)
            last = max(last, t.k or inst.q)
        return last


def is_solution(
    inst: Instance, component: IdSet, stats: Optional[OracleStats] = None
) -> bool:
    """Test whether a component is a solution (one l1 probe).

    ``component`` should be a component of the instance's system; for a
    non-component the answer is False.
    """
    hull = inst._hull_mask(inst.common_item_set(component)._mask)
    return _Run(inst, stats).is_solution(component._mask, hull)


def _solution_run(
    inst: Instance,
    t: Solution,
    stats: Optional[OracleStats],
    rho: Optional[VolumeFunction] = None,
    sink: Optional[EmitSink] = None,
    needs_parent: bool = False,
) -> _Run:
    """A run of the building blocks from ``t``, once ``t`` is a solution.

    Cheapest check first; only the last asks a query, one counted ``l1``.
    """
    if make_solution(inst, t.elements) != t:
        raise ContractError(f"{t!r} differs from make_solution(inst, t.elements)")
    if needs_parent and not (t.k and inst._carried >> (t.k + 1)):
        raise ContractError(f"solutions in group {t.k} are roots and have no parent")
    run = _Run(inst, stats, rho, sink)
    if not run.is_solution(t.elements._mask, inst._hull_mask(t.items._mask)):
        raise ContractError(f"{t.elements!r} is not a solution")
    return run


def parent(inst: Instance, s: Solution, stats: Optional[OracleStats] = None) -> Solution:
    """Return the parent of a non-root solution ``s``.

    The parent is the lexicographically least (items first, then elements)
    among the minimal strict superset solutions of ``s`` within its group.
    Raises :class:`ContractError` when ``s`` is a root of its group, which
    includes every solution with ``k`` equal to 0, and every one when no
    element carries an item above ``k``.
    """
    run = _solution_run(inst, s, stats, needs_parent=True)
    pm = run._parent(s.elements._mask, s.items._mask, s.k)
    return run.solution(pm, inst._common_mask(pm))


def children(
    inst: Instance, t: Solution, stats: Optional[OracleStats] = None
) -> List[Solution]:
    """All children of ``t`` in its group, each once, in traversal order."""
    return list(_solution_run(inst, t, stats).child_candidates(t))


def descendants(
    inst: Instance,
    t: Solution,
    rho: Optional[VolumeFunction] = None,
    sink: Optional[EmitSink] = None,
    stats: Optional[OracleStats] = None,
) -> None:
    """Emit every kept descendant of ``t``, not ``t`` itself.

    ``t`` is expanded as a root: its children follow their subtrees, its
    grandchildren precede theirs, and so on by generation.
    """
    _solution_run(inst, t, stats, rho, sink).descend(t)


def enumerate_k(
    inst: Instance,
    k: int,
    rho: Optional[VolumeFunction] = None,
    sink: Optional[EmitSink] = None,
    stats: Optional[OracleStats] = None,
) -> None:
    """Emit every kept solution whose group id is ``k``, each exactly once.

    Roots come from one l2 query on the elements carrying item ``k``
    (``k = 0`` queries the whole universe); each root that belongs to the
    group is emitted and, when ``k > 0`` and some element carries an item
    above ``k``, its tree is traversed.  When no element carries item
    ``k`` there is nothing to do and the oracle is not queried at all.
    The group is asked in full: the bound :func:`enumerate_all` takes from
    group 0's roots is not applied here.
    """
    if not 0 <= k <= inst.q:
        raise ValueError(f"group id {k} outside [0, {inst.q}]")
    _Run(inst, stats, rho, sink).roots(k)


def enumerate_all(
    inst: Instance,
    rho: Optional[VolumeFunction] = None,
    sink: Optional[EmitSink] = None,
    stats: Optional[OracleStats] = None,
) -> None:
    """Emit every kept solution of the instance, each exactly once.

    Runs the per-group enumeration for group 0 and for each item some
    element carries, in ascending order; no other group has a solution.
    The groups partition the solution family, so nothing repeats.  Group
    0's roots are the maximal components ``M`` of the universe.  Every
    component lies inside one of them and carries its common items, so no
    solution is in a group above the least common item of its ``M`` (or
    ``q`` when ``M`` has none); the run stops past the largest such bound.
    """
    run = _Run(inst, stats, rho, sink)
    last = run.roots(0)
    groups = inst._carried
    while groups:
        kbit = groups & -groups
        groups ^= kbit
        k = kbit.bit_length() - 1
        if k > last:
            return
        run.roots(k)
