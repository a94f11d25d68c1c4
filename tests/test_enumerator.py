import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    Instance,
    OracleStats,
    ReducedInstance,
    SizeAbove,
    Solution,
    children,
    descendants,
    enumerate_all,
    enumerate_components,
    enumerate_k,
    is_solution,
    make_solution,
    parent,
)
from polyenum.enumerator import _Run
from polyenum.testkit import (
    PublicOnly,
    RandomSpec,
    brute_force_parent,
    brute_force_solutions,
    materialize_components,
    max_interoutput_traversals,
    random_instance,
)

from conftest import ACCEPTANCE_SPECS, P3_SIGMA, elems, items, once


def run_all(inst, rho=None):
    out = []
    enumerate_all(inst, rho=rho, sink=out.append)
    return out


# 40 instances of each kind from the acceptance corpus.
CORPUS_SPECS = ACCEPTANCE_SPECS[:40] + ACCEPTANCE_SPECS[100:140]


class TestIsSolution:
    def test_p3_cases(self, p3):
        assert not is_solution(p3, elems(p3, 1))
        assert is_solution(p3, elems(p3, 2))
        assert is_solution(p3, elems(p3, 1, 2))
        assert not is_solution(p3, elems(p3, 3))
        assert is_solution(p3, elems(p3, 2, 3))
        assert is_solution(p3, elems(p3, 1, 2, 3))

    def test_unique_top_component_is_solution(self):
        oracle = ExplicitFamilyOracle(3, [[1], [1, 3]])
        inst = makeinst(oracle)
        assert is_solution(inst, IdSet(inst.n, [1, 3]))

    def test_non_component_is_not_a_solution(self):
        # {1, 3} is disconnected on the path 1-2-3 and fills its own hull
        # (the elements carrying item 1), so no vertex of the hull lies
        # outside it: the backend's neighbour test, which holds for
        # components only, says "maximal".  The public test must still
        # say no, as documented for a non-component.
        oracle = GraphConnectivityOracle(3, [(1, 2), (2, 3)])
        inst = Instance(3, 2, [[1], [2], [1]], oracle)
        x = IdSet(3, [1, 3])
        h = inst._hull_mask(2)
        assert not oracle._neighbours(3, x._mask, h) & h
        stats = OracleStats()
        assert not is_solution(inst, x, stats)
        assert stats.l1_calls == 1


def makeinst(oracle, q=2, sigma=((1,), (1, 2), (2,))):
    return Instance(oracle.n, q, [list(r) for r in sigma[: oracle.n]], oracle)


class TestParent:
    def test_p3_graph(self, p3):
        s = make_solution(p3, elems(p3, 2))
        assert parent(p3, s).elements == elems(p3, 1, 2)

    def test_p3_explicit_family(self, p3_explicit):
        s = make_solution(p3_explicit, elems(p3_explicit, 2))
        t = parent(p3_explicit, s)
        assert t.elements == elems(p3_explicit, 1, 2)
        assert t == brute_force_parent(p3_explicit, s)

    def test_boundary_groups_rejected(self, p3):
        top = make_solution(p3, elems(p3, 1, 2, 3))  # k == 0
        with pytest.raises(ContractError):
            parent(p3, top)
        right = make_solution(p3, elems(p3, 2, 3))  # k == q
        with pytest.raises(ContractError):
            parent(p3, right)

    @pytest.mark.parametrize("ids, k", [((1, 2, 3), 0), ((2, 3), 2)])
    def test_boundary_groups_rejected_before_any_query(self, p3, ids, k):
        stats = OracleStats()
        with pytest.raises(ContractError, match=f"^solutions in group {k} are roots"):
            parent(p3, make_solution(p3, elems(p3, *ids)), stats)
        assert stats.as_dict() == OracleStats().as_dict()

    def test_root_of_inner_group_rejected(self, p3):
        base = make_solution(p3, elems(p3, 1, 2))  # root of group 1
        with pytest.raises(ContractError):
            parent(p3, base)

    @pytest.mark.parametrize("spec", CORPUS_SPECS, ids=lambda s: f"{s.kind}{s.seed}")
    def test_matches_brute_force_everywhere(self, spec):
        inst = random_instance(spec)
        sols = brute_force_solutions(inst)
        for s in sols:
            if not 1 <= s.k <= inst.q - 1:
                continue
            if not any(t.k == s.k and s.elements < t.elements for t in sols):
                continue  # root of its group
            got = parent(inst, s)
            want = brute_force_parent(inst, s, solutions=sols)
            assert got.elements == want.elements
            # parent laws
            assert got.elements > s.elements
            assert got.k == s.k
            assert is_solution(inst, got.elements)


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS, ids=lambda s: f"{s.kind}{s.seed}")
def test_parent_target_test_agrees_with_full_parent(spec):
    """The early-exit form answers exactly "is the parent's element set t?"."""
    inst = random_instance(spec)
    sols = brute_force_solutions(inst)
    run = _Run(inst)
    for s in sols:
        group = [t for t in sols if t.k == s.k]
        if not 1 <= s.k <= inst.q - 1 or not any(s.elements < t.elements for t in group):
            continue  # root of its group
        p = parent(inst, s)
        assert run._parent(s.elements._mask, s.items._mask, s.k) == p.elements._mask
        for t in group:
            tm = t.elements._mask
            assert (run._parent(s.elements._mask, s.items._mask, s.k, tm) == tm) == (
                p.elements == t.elements
            )


@pytest.mark.parametrize("reduced", [False, True], ids=["solutions", "components"])
def test_j_filter_rejects_every_other_group(reduced):
    """An ``l2`` answer outside ``t``'s group gains an item below ``j``.

    The generic child scan keeps an answer only when ``j`` is the least
    item it gains over ``t``, with no group check of its own: ``t`` holds
    no item below ``k = t.k``, and an answer inside ``t`` keeps every item
    of ``t``, so one whose least item is not ``k`` gains an item below
    ``k < j``.  Replays the scan's queries for every solution of the
    acceptance corpus in an inner group.
    """
    other = 0
    for spec in ACCEPTANCE_SPECS:
        inst = random_instance(spec)
        if reduced:
            inst = ReducedInstance(inst.n, inst.oracle)
        for t in brute_force_solutions(inst):
            tm, tim, k = t.elements._mask, t.items._mask, t.k
            if not k:
                continue
            rest = inst._carried & ~tim & -(2 << k)
            while rest:
                jbit = rest & -rest
                rest ^= jbit
                ym = tm & inst._slice_mask(jbit.bit_length() - 1)
                if not ym:
                    continue
                for cm in inst.oracle._l2_masks(inst.n, ym):
                    im = inst._common_mask(cm)
                    if im & -im != 1 << k:
                        new = im & ~tim
                        assert new & -new < jbit
                        other += 1
    assert other


def parent_from_scratch(inst, s):
    """The parent routine with every hull and common item set recomputed."""
    l1 = inst.oracle.l1
    items = IdSet(inst.q, [s.k])
    for i in s.items - items:
        trial = items | IdSet(inst.q, [i])
        if l1(s.elements, inst.elements_with_items(trial)) != s.elements:
            items = trial
    hull = inst.elements_with_items(items)
    grown = s.elements
    for u in hull - s.elements:
        trial = grown | IdSet(inst.n, [u])
        if l1(trial, hull) is not None:
            grown = trial
            common = inst.common_item_set(grown)
            if l1(grown, inst.elements_with_items(common)) == grown:
                return Solution(grown, common, s.k)
    raise AssertionError("no parent")


@pytest.mark.parametrize("reduced", [False, True], ids=["solutions", "components"])
@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS, ids=lambda s: f"{s.kind}{s.seed}")
def test_parent_incremental_hull_and_items_match_recomputation(spec, reduced):
    """parent() asks the same l1 queries as a from-scratch recomputation.

    The mask routine keeps the item pass's hull and the element pass's
    common items incrementally; every hull it hands the oracle, and the
    parent's item set, must equal the recomputed ones.  The early-exit
    form, asked about any strict superset, asks a prefix of the same
    queries.
    """
    plain = random_instance(spec)
    oracle = PublicOnly(plain.oracle)
    if reduced:
        plain = ReducedInstance(plain.n, plain.oracle)
        inst = ReducedInstance(plain.n, oracle)
    else:
        inst = Instance(plain.n, plain.q, [list(plain.sigma(v)) for v in range(1, plain.n + 1)],
                        oracle)
    sols = brute_force_solutions(plain)
    run = _Run(inst)
    for s in sols:
        group = [t for t in sols if t.k == s.k]
        if not 1 <= s.k <= inst.q - 1 or not any(s.elements < t.elements for t in group):
            continue  # root of its group
        oracle.log = []
        want = parent_from_scratch(inst, s)
        want_log = oracle.log
        oracle.log = []
        got = parent(inst, s)
        assert got == want
        assert got.items == inst.common_item_set(got.elements)
        # One l1 more, first: the check that s is a solution.
        solution_test = ("l1", s.elements._mask, inst._hull_mask(s.items._mask))
        assert oracle.log == [solution_test] + want_log
        for t in group:
            if not s.elements < t.elements:
                continue  # only a strict superset can be the parent
            oracle.log = []
            tm = t.elements._mask
            assert (run._parent(s.elements._mask, s.items._mask, s.k, tm) == tm) == (
                got.elements == t.elements
            )
            # The child test asks the solution test first, unless s fills
            # its hull, then a prefix of the parent's own queries.
            log = oracle.log
            if solution_test[2] != s.elements._mask:
                assert log[0] == solution_test
                log = log[1:]
            assert log == want_log[: len(log)]


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS, ids=lambda s: f"{s.kind}{s.seed}")
def test_child_test_asks_the_solution_test_first(spec):
    """``_parent`` with a target is the whole child test of a component.

    In an inner group, a component whose hull is more than itself is asked
    the solution test first: one counted and one logged ``l1``.  A
    non-solution stops there.  A solution then asks what its parent test
    asks, and one that fills its hull asks nothing more than that.
    """
    plain = random_instance(spec)
    oracle = PublicOnly(plain.oracle)
    inst = Instance(plain.n, plain.q, [list(plain.sigma(v)) for v in range(1, plain.n + 1)],
                    oracle)
    sols = {s.elements for s in brute_force_solutions(plain)}
    for c in materialize_components(plain.oracle, plain.n):
        s = make_solution(inst, c)  # a record only: c need not be a solution
        cm, im, k = c._mask, s.items._mask, s.k
        if not (k and inst._carried >> (k + 1)):
            continue  # group 0, or no item above k: no child test asks about c
        hull = inst._hull_mask(im)
        asked = [] if hull == cm else [("l1", cm, hull)]
        if c not in sols:
            assert asked  # a component that fills its hull is a solution
            stats, oracle.log = OracleStats(), []
            assert _Run(inst, stats)._parent(cm, im, k, inst._slice_mask(k)) == 0
            assert (stats.l1_calls, oracle.log) == (1, asked)
            continue
        full, oracle.log = OracleStats(), []
        try:
            pm = _Run(inst, full)._parent(cm, im, k)
        except ContractError:
            continue  # a root of its group has no parent
        want_log = oracle.log
        stats, oracle.log = OracleStats(), []
        assert _Run(inst, stats)._parent(cm, im, k, pm) == pm
        assert oracle.log == asked + want_log
        assert stats.l1_calls == len(asked) + full.l1_calls


class TestChildren:
    def test_p3_children_of_base(self, p3):
        t = make_solution(p3, elems(p3, 1, 2))
        got = children(p3, t)
        assert [s.elements for s in got] == [elems(p3, 2)]

    def test_empty_item_window_gives_no_children(self, p3):
        t = make_solution(p3, elems(p3, 2, 3))  # k == q, window empty
        assert children(p3, t) == []

    def test_group_0_has_no_children_and_asks_nothing(self, p3):
        # Every group-0 solution is maximal in the whole universe, so it is
        # a root with nothing below it; beyond the one l1 that checks the
        # record is a solution, no oracle query is needed to say so.
        t = make_solution(p3, elems(p3, 1, 2, 3))
        assert t.k == 0
        stats = OracleStats()
        assert children(p3, t, stats) == []
        out = []
        descendants(p3, t, sink=out.append, stats=stats)
        assert out == []
        assert (stats.l1_calls, stats.l2_calls) == (2, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_children_partition_non_roots(self, seed):
        inst = random_instance(RandomSpec(kind="explicit", seed=300 + seed))
        sols = brute_force_solutions(inst)
        for k in range(1, inst.q):
            group = [s for s in sols if s.k == k]
            roots = [
                s
                for s in group
                if not any(t.k == k and s.elements < t.elements for t in group)
            ]
            produced = []
            for t in group:
                for c in children(inst, t):
                    assert parent(inst, c).elements == t.elements
                    produced.append(c.elements)
            assert len(produced) == len(set(produced))
            assert set(produced) == {s.elements for s in group} - {
                s.elements for s in roots
            }


class TestEnumerateK:
    def test_p3_groups(self, p3):
        expected = {
            0: [elems(p3, 1, 2, 3)],
            1: [elems(p3, 1, 2), elems(p3, 2)],
            2: [elems(p3, 2, 3)],
        }
        for k, want in expected.items():
            out = []
            enumerate_k(p3, k, sink=out.append)
            assert [s.elements for s in out] == want

    def test_k_out_of_range(self, p3):
        with pytest.raises(ValueError):
            enumerate_k(p3, 3)
        with pytest.raises(ValueError):
            enumerate_k(p3, -1)

    def test_item_carried_by_nobody_short_circuits(self):
        oracle = ExplicitFamilyOracle(2, [[1], [2]])
        inst = Instance(2, 3, [[1], [1]], oracle)
        stats = OracleStats()
        out = []
        enumerate_k(inst, 2, sink=out.append, stats=stats)
        assert out == []
        assert stats.l2_calls == 0


class TestDescendants:
    def test_emits_after_subtree_at_even_depth(self, p3):
        t = make_solution(p3, elems(p3, 1, 2))
        out = []
        descendants(p3, t, sink=out.append)
        assert [s.elements for s in out] == [elems(p3, 2)]

    def test_childless_solution_emits_nothing(self, p3):
        t = make_solution(p3, elems(p3, 2, 3))
        out = []
        descendants(p3, t, sink=out.append)
        assert out == []

    def test_pruned_child_cuts_whole_subtree(self, p3):
        t = make_solution(p3, elems(p3, 1, 2))
        out = []
        descendants(p3, t, rho=SizeAbove(2), sink=out.append)
        assert out == []

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["explicit", "graph"]),
        seed=st.integers(0, 10**6),
        p=st.integers(0, 3),
    )
    def test_each_root_expands_to_its_stretch_of_the_run(self, kind, seed, p):
        """descendants(root) emits what the run emits between root and the next one."""
        inst = random_instance(RandomSpec(kind=kind, seed=seed))
        rho = SizeAbove(p)
        for k in range(1, inst.q):
            run = []
            enumerate_k(inst, k, rho=rho, sink=run.append)
            tops = inst.oracle.l2(inst.elements_with_item(k))
            roots = [t for t in run if t.elements in tops]
            starts = [run.index(t) for t in roots] + [len(run)]
            assert starts[0] == 0
            for root, start, end in zip(roots, starts, starts[1:]):
                out = []
                descendants(inst, root, rho=rho, sink=out.append)
                assert out == run[start + 1 : end]


@st.composite
def small_instances(draw):
    """A small instance over an explicit family or a graph, as plain data."""
    n = draw(st.integers(1, 7))
    q = draw(st.integers(1, 6))
    sigma = [[i for i in range(1, q + 1) if draw(st.booleans())] for _ in range(n)]
    if draw(st.booleans()):
        size = draw(st.integers(1, min(24, (1 << n) - 1)))
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=size, max_size=size,
                              unique=True))
        system = ("explicit", sorted(masks))
    else:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        system = ("graph", [e for e in pairs if draw(st.booleans())])
    return n, q, sigma, system


def build(case):
    n, q, sigma, (kind, data) = case
    if kind == "explicit":
        oracle = ExplicitFamilyOracle(n, [IdSet._from_mask(n, m << 1) for m in data])
    else:
        oracle = GraphConnectivityOracle(n, data)
    return Instance(n, q, sigma, oracle)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=small_instances())
def test_every_child_has_t_as_parent(case):
    inst = build(case)
    for t in brute_force_solutions(inst):
        for c in children(inst, t):
            assert parent(inst, c) == t


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=small_instances())
def test_children_are_the_solutions_whose_brute_force_parent_is_t(case):
    inst = build(case)
    sols = brute_force_solutions(inst)
    parent_of = {}
    for s in sols:
        try:
            parent_of[s] = brute_force_parent(inst, s, sols)
        except ContractError:
            pass  # a root of its group
    for t in sols:
        got = children(inst, t)
        assert len(got) == len(set(got))
        assert set(got) == {s for s, p in parent_of.items() if p == t}


def forked():
    """n=2, q=4: the root {1, 2} (items {1, 3}) and its child {2} (items 1 to 4)."""
    oracle = ExplicitFamilyOracle(2, [[1], [2], [1, 2]])
    return Instance(2, 4, [[1, 3], [1, 2, 3, 4]], oracle)


@pytest.mark.parametrize("block", [parent, children, descendants], ids=lambda f: f.__name__)
class TestRecordCheckedAtBoundary:
    """The building blocks take only the record make_solution builds."""

    def test_items_missing_a_common_item(self, block):
        inst = forked()
        s = make_solution(inst, IdSet(2, [2]))
        stats = OracleStats()
        with pytest.raises(ContractError):
            block(inst, s._replace(items=IdSet(4, [1, 2, 4])), stats=stats)
        assert stats.l1_calls == stats.l2_calls == 0

    def test_k_not_the_least_item(self, block):
        inst = forked()
        s = make_solution(inst, IdSet(2, [2]))
        with pytest.raises(ContractError):
            block(inst, s._replace(k=3))

    def test_elements_over_another_universe(self, block, p3):
        with pytest.raises(ValueError, match="different universe"):
            block(p3, Solution(IdSet(5, [2]), items(p3, 1, 2), 1))


def test_parent_rejects_every_record_missing_a_common_item():
    for spec in CORPUS_SPECS:
        inst = random_instance(spec)
        for s in brute_force_solutions(inst):
            for i in s.items:
                if i == s.k:
                    continue
                with pytest.raises(ContractError):
                    parent(inst, s._replace(items=s.items - IdSet(inst.q, [i])))


class TestEnumerateAll:
    def test_p3_traversal_order(self, p3):
        got = [(tuple(s.elements), tuple(s.items), s.k) for s in run_all(p3)]
        assert got == [
            ((1, 2, 3), (), 0),
            ((1, 2), (1,), 1),
            ((2,), (1, 2), 1),
            ((2, 3), (2,), 2),
        ]

    def test_single_component_instance(self):
        oracle = ExplicitFamilyOracle(3, [[1, 3]])
        inst = makeinst(oracle)
        got = run_all(inst)
        assert [s.elements for s in got] == [IdSet(inst.n, [1, 3])]

    def test_work_follows_the_carried_items_not_the_declared_count(self, p3):
        class SliceCounter(Instance):
            asked = 0

            def _slice_mask(self, i):
                self.asked += 1
                return super()._slice_mask(i)

        # Items 3..q are carried by no element.
        runs = []
        for q in (2, 3, 10**6):
            inst, stats, out = SliceCounter(3, q, P3_SIGMA, p3.oracle), OracleStats(), []
            enumerate_all(inst, sink=out.append, stats=stats)
            runs.append(([(list(s.elements), list(s.items), s.k) for s in out], stats.as_dict()))
        assert runs[0] == runs[1] == runs[2]
        assert inst.asked < 1000

    def test_runs_are_deterministic(self, p3):
        assert run_all(p3) == run_all(p3)

    def test_sink_errors_abort_the_run(self, p3):
        class Boom(RuntimeError):
            pass

        def sink(s):
            raise Boom

        with pytest.raises(Boom):
            enumerate_all(p3, sink=sink)

    @pytest.mark.parametrize("spec", CORPUS_SPECS, ids=lambda s: f"{s.kind}{s.seed}")
    def test_matches_brute_force(self, spec):
        inst = random_instance(spec)
        got = run_all(inst)
        sets = [s.elements for s in got]
        assert len(sets) == len(set(sets)), "duplicate emission"
        assert {(s.elements, s.items, s.k) for s in got} == {
            (s.elements, s.items, s.k) for s in brute_force_solutions(inst)
        }
        for s in got:
            assert s.items == inst.common_item_set(s.elements)
            assert s.k == s.items.min_id()

    @pytest.mark.parametrize("seed", range(10))
    def test_group_partition(self, seed):
        inst = random_instance(RandomSpec(kind="graph", n_range=(1, 8), seed=500 + seed))
        by_k = {}
        for s in run_all(inst):
            by_k.setdefault(s.k, set()).add(s.elements)
            assert s.items.min_id() == s.k
        groups = list(by_k.values())
        for i, a in enumerate(groups):
            for b in groups[i + 1 :]:
                assert not (a & b)

    @pytest.mark.parametrize("seed", range(10))
    def test_intermediate_slices_contain_only_solutions(self, seed):
        # every maximal component of an item slice is a solution
        inst = random_instance(RandomSpec(kind="explicit", seed=700 + seed))
        rng = random.Random(seed)
        for _ in range(5):
            jm = rng.getrandbits(inst.q) << 1
            if not jm:
                jm = 1 << rng.randint(1, inst.q)
            j = IdSet._from_mask(inst.q, jm)
            y = inst.elements_with_items(j)
            if not y:
                continue
            for c in inst.oracle.l2(y):
                assert is_solution(inst, c)

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 3, 11, 1004, 1017])
    def test_volume_pruning_equals_filtering(self, p, seed):
        kind = "explicit" if seed < 1000 else "graph"
        inst = random_instance(RandomSpec(kind=kind, seed=seed))
        pruned = {s.elements for s in run_all(inst, rho=SizeAbove(p))}
        unfiltered = {s.elements for s in run_all(inst)}
        assert pruned == {c for c in unfiltered if len(c) > p}


class TestStackMatchesRecursion:
    """The explicit-stack traversal must replay the recursive formulation."""

    @staticmethod
    def reference_run(inst, rho=None):
        rho = rho or SizeAbove(0)
        out = []

        def descend(t, k, d):
            for s in children(inst, t):
                if not rho.positive(s.elements):
                    continue
                if d % 2 == 1:
                    out.append(s)
                descend(s, k, d + 1)
                if d % 2 == 0:
                    out.append(s)

        for k in range(inst.q + 1):
            vk = inst.elements_with_item(k)
            if not vk:
                continue
            for c in inst.oracle.l2(vk):
                items_c = inst.common_item_set(c)
                if items_c.min_id() != k or not rho.positive(c):
                    continue
                t = make_solution(inst, c)
                out.append(t)
                if 1 <= k <= inst.q - 1:
                    descend(t, k, 2)
        return out

    @pytest.mark.parametrize("seed", [0, 2, 7, 13, 1003, 1008, 1021])
    @pytest.mark.parametrize("threshold", [None, 1])
    def test_emission_sequence_identical(self, seed, threshold):
        kind = "explicit" if seed < 1000 else "graph"
        inst = random_instance(RandomSpec(kind=kind, n_range=(1, 8), seed=seed))
        rho = SizeAbove(threshold) if threshold is not None else None
        assert run_all(inst, rho=rho) == self.reference_run(inst, rho=rho)

    def test_deep_child_chains_do_not_recurse(self):
        # the interval chain of a long path nests one child per level
        m = 40
        oracle = GraphConnectivityOracle(m, [(i, i + 1) for i in range(1, m)])
        out = []
        stats = OracleStats()
        enumerate_components(oracle, m, sink=once(out.append), stats=stats)
        assert len(out) == m * (m + 1) // 2
        assert max_interoutput_traversals(stats) <= 3


class TestDelayMeters:
    @pytest.mark.parametrize("seed", [0, 5, 9, 1001, 1015])
    def test_bounded_traversals_between_outputs(self, seed):
        kind = "explicit" if seed < 1000 else "graph"
        inst = random_instance(RandomSpec(kind=kind, seed=seed))
        for k in range(inst.q + 1):
            stats = OracleStats()
            enumerate_k(inst, k, stats=stats)
            assert max_interoutput_traversals(stats) <= 3

    def test_p3_group1_counters(self, p3):
        stats = OracleStats()
        traversals = []  # the counter as each output reaches the sink
        enumerate_k(p3, 1, sink=lambda s: traversals.append(stats.traversal_calls), stats=stats)
        assert stats.outputs == 2
        assert max_interoutput_traversals(stats) <= 3
        assert traversals[0] == 0  # root emitted first

    @staticmethod
    def stats_retained_bytes(m):
        """Bytes still allocated after components mode on an m-path, stats kept."""
        edges = [(i, i + 1) for i in range(1, m)]
        enumerate_components(GraphConnectivityOracle(m, edges), m)  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stats = OracleStats()
            enumerate_components(GraphConnectivityOracle(m, edges), m, stats=stats)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert stats.outputs == m * (m + 1) // 2
        return retained

    def test_stats_memory_does_not_grow_with_outputs(self):
        # 55 against 210 outputs: a per-output record of even 8 bytes would
        # put 1.2 KB between the two.  (Tracing slows the run about 30-fold,
        # which keeps the path short.)
        small, large = self.stats_retained_bytes(10), self.stats_retained_bytes(20)
        assert large - small < 1024, (small, large)
