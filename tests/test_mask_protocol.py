"""The mask protocol between the enumerator, the algebra and the backends.

The enumerator asks the backends through ``_l1_mask``/``_l2_masks`` and
the instance through its ``_*_mask`` algebra.  These tests hold each mask
method to the public IdSet method it serves, hold each shipped backend's
output to its public-only twin's, and check that an answer from another
universe, or an empty one, fails loudly.  The twin's ``parent`` and
``children`` answers are held to the shipped backend's in
``test_parent_growth.py``.
"""

import io
import random

import pytest

from polyenum import (
    ContractError,
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    IdSet,
    Instance,
    ReducedInstance,
    enumerate_all,
    enumerate_components,
)
from polyenum import cli
from polyenum.testkit import PublicOnly, RandomSpec, random_instance

from conftest import ACCEPTANCE_SPECS, P3_JSON, P3_SIGMA, public_twin, reference_algebra, rendered


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS, ids=lambda s: f"{s.kind}{s.seed}")
def test_adapter_path_matches_shipped_backend(spec):
    """The shipped backend, with its hook overrides, and its public-only twin
    (``conftest.public_twin``), which takes every hook's default, give the
    same records and the same stats at each output and at the end, in both
    modes; and each counted ``l1`` and ``l2`` is one query the twin was asked.
    """
    plain = random_instance(spec)
    for inst in (plain, ReducedInstance(plain.n, plain.oracle)):
        twin = public_twin(inst)
        got = rendered(lambda sink, st: enumerate_all(twin, sink=sink, stats=st))
        assert got == rendered(lambda sink, st: enumerate_all(inst, sink=sink, stats=st))
        final, ops = got[1][0], [q[0] for q in twin.oracle.log]
        assert (final["l1_calls"], final["l2_calls"]) == (ops.count("l1"), ops.count("l2"))


class ForeignL1(PublicOnly):
    """Answers ``l1`` with the right ids over a universe one element larger."""

    def l1(self, x, y):
        z = super().l1(x, y)
        return None if z is None else IdSet(z.capacity + 1, z)


class ForeignL2(PublicOnly):
    def l2(self, y):
        return [IdSet(c.capacity + 1, c) for c in super().l2(y)]


class FrozensetL1(PublicOnly):
    def l1(self, x, y):
        z = super().l1(x, y)
        return None if z is None else frozenset(z)


class EmptyL1(PublicOnly):
    """Answers every ``l1`` query with the empty set."""

    def l1(self, x, y):
        return IdSet(x.capacity)


class EmptyL2(PublicOnly):
    """Adds the empty set to its answer to the first query: the root ``l2``."""

    def l2(self, y):
        answer = super().l2(y)
        if len(self.log) == 1:
            answer.append(IdSet(y.capacity))  # last in subset order
        return answer


P3_EDGES = [(1, 2), (2, 3)]


@pytest.mark.parametrize("broken", [ForeignL1, ForeignL2, FrozensetL1])
def test_foreign_universe_answers_fail_loudly(broken):
    # Compared with the instance's own sets, such answers used to be
    # unequal, so is_solution said no and solutions vanished silently.
    oracle = broken(GraphConnectivityOracle(3, P3_EDGES))
    with pytest.raises(ContractError, match=r"not a set over the instance's elements \[1, 3\]"):
        enumerate_all(Instance(3, 2, P3_SIGMA, oracle), sink=lambda s: None)
    with pytest.raises(ContractError, match="not a set over"):
        enumerate_components(oracle, 3, sink=lambda s: None)


def test_cli_exits_2_on_a_foreign_universe_answer(monkeypatch):
    build = cli._build_oracle
    monkeypatch.setattr(cli, "_build_oracle", lambda doc, n: ForeignL1(build(doc, n)))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["--input", P3_JSON], stdout=out, stderr=err) == 2
    assert err.getvalue().startswith("error: l1 answered IdSet(4, ")
    assert "not a set over the instance's elements [1, 3]" in err.getvalue()


@pytest.mark.parametrize("broken, query", [(EmptyL1, "l1"), (EmptyL2, "l2")])
def test_empty_answers_fail_loudly(broken, query):
    # An empty root answer used to be skipped as a record of another group.
    line = rf"^{query} answered the empty set; components are non-empty$"
    with pytest.raises(ContractError, match=line):
        enumerate_all(Instance(3, 2, P3_SIGMA, broken(GraphConnectivityOracle(3, P3_EDGES))),
                      sink=lambda s: None)
    with pytest.raises(ContractError, match=line):
        enumerate_components(broken(GraphConnectivityOracle(3, P3_EDGES)), 3,
                             sink=lambda s: None)


@pytest.mark.parametrize("mode", [[], ["--components"]], ids=["solutions", "components"])
@pytest.mark.parametrize("broken, query", [(EmptyL1, "l1"), (EmptyL2, "l2")])
def test_cli_exits_2_on_an_empty_answer(monkeypatch, broken, query, mode):
    build = cli._build_oracle
    monkeypatch.setattr(cli, "_build_oracle", lambda doc, n: broken(build(doc, n)))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["--input", P3_JSON, *mode], stdout=out, stderr=err) == 2
    assert err.getvalue().endswith(
        f"error: {query} answered the empty set; components are non-empty\n")


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("kind", ["graph", "explicit"])
def test_backend_mask_queries_match_public_queries(kind, seed):
    # Two identical backends, one asked on masks and one through the
    # public methods, so each keeps its own graph memo.  Queries alternate
    # between a few hulls: the memo slot is replaced and then reused.
    spec = RandomSpec(kind, n_range=(2, 12), max_family=30, edge_prob=0.3, seed=seed)
    masks, public = random_instance(spec).oracle, random_instance(spec).oracle
    n, rng = masks.n, random.Random(seed)
    hulls = set()
    while len(hulls) < 3:
        hulls.add((rng.getrandbits(n) << 1) or 2)
    hulls = sorted(hulls)
    reused = replaced = 0
    last = None
    for _ in range(120):
        ym = rng.choice(hulls)
        reused += ym == last
        replaced += ym != last
        last = ym
        y = IdSet._from_mask(n, ym)
        for _ in range(3):
            xm = ym & (rng.getrandbits(n) << 1) or ym & -ym
            z = public.l1(IdSet._from_mask(n, xm), y)
            assert masks._l1_mask(n, xm, ym) == (None if z is None else z._mask)
            assert z is None or z.capacity == n
        if rng.random() < 0.2:
            assert masks._l2_masks(n, ym) == [c._mask for c in public.l2(y)]
    assert reused > 0 and replaced > 1


@pytest.mark.parametrize("backend", [GraphConnectivityOracle(3, P3_EDGES),
                                     ExplicitFamilyOracle(3, [[1], [1, 2]])],
                         ids=["graph", "explicit"])
def test_public_queries_check_their_universe(backend):
    with pytest.raises(ValueError, match="backend over"):
        backend.l1(IdSet(4, [1]), IdSet(4, [1, 2]))
    with pytest.raises(ValueError, match="backend over"):
        backend.l1(IdSet(3, [1]), IdSet(4, [1, 2]))
    with pytest.raises(ValueError, match="backend over"):
        backend.l2(IdSet(4, [1, 2]))
    with pytest.raises(ContractError, match="non-empty"):
        backend.l1(IdSet(3), IdSet(3, [1]))
    with pytest.raises(ContractError, match="inside the upper bound"):
        backend.l1(IdSet(3, [3]), IdSet(3, [1, 2]))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("reduced", [False, True], ids=["instance", "reduced"])
def test_mask_algebra_matches_public_algebra(reduced, seed):
    base = random_instance(RandomSpec("graph", n_range=(1, 12), q_range=(1, 9), seed=seed))
    n, rng = base.n, random.Random(seed)
    if reduced:
        inst = ReducedInstance(n, base.oracle)
        rows = [[i for i in range(1, n + 1) if i != v] for v in range(1, n + 1)]
    else:
        rows = [list(base.sigma(v)) for v in range(1, n + 1)]
        inst = Instance(n, base.q, rows, base.oracle)
    q = inst.q
    common, hull, slice_ = reference_algebra(rows, n, q)
    for v in range(1, n + 1):
        assert inst._sigma_mask(v) == inst.sigma(v)._mask == IdSet(q, rows[v - 1])._mask
    for i in range(q + 1):
        assert inst._slice_mask(i) == inst.elements_with_item(i)._mask == slice_(i)._mask
    assert inst._carried == IdSet(q, set().union(*rows))._mask
    for _ in range(40):
        xm = (rng.getrandbits(n) << 1) or 2
        x = IdSet._from_mask(n, xm)
        assert inst._common_mask(xm) == inst.common_item_set(x)._mask == common(x)._mask
        im = rng.getrandbits(q) << 1
        items = IdSet._from_mask(q, im)
        assert inst._hull_mask(im) == inst.elements_with_items(items)._mask == hull(items)._mask
