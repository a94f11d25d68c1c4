"""Acceptance suite: one test per shipping criterion, desk-scale but exhaustive.

Each test prints a single ``[acceptance] criterion N (...): PASS|FAIL`` line
(visible with ``pytest -s`` or in failure reports) and then asserts.
"""

import itertools
import random
import time
from types import SimpleNamespace

import pytest

from polyenum import (
    GraphConnectivityOracle,
    IdSet,
    OracleStats,
    SizeAbove,
    enumerate_all,
    enumerate_k,
    is_solution,
    parent,
    subset_lex_leq,
    subset_lex_less,
)
from polyenum.testkit import (
    brute_force_parent,
    brute_force_solutions,
    materialize_components,
    max_interoutput_traversals,
    random_instance,
)

from conftest import ACCEPTANCE_SPECS, P3_DOC, P3_GOLDEN, invoke, write_doc

_t0 = time.monotonic()


def _finish(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({label}): {status}")
    assert not failures, f"criterion {num} ({label}): " + " | ".join(failures[:10])


@pytest.fixture(scope="module")
def corpus():
    """The 200 seeded instances with all per-instance runs precomputed."""
    records = []
    for spec in ACCEPTANCE_SPECS:
        inst = random_instance(spec)
        emitted = []
        enumerate_all(inst, sink=emitted.append)
        per_k = {}
        for k in range(inst.q + 1):
            stats = OracleStats()
            group, counters = [], []

            def sink(s, group=group, counters=counters, stats=stats):
                # the enumerator updates stats before it calls the sink
                group.append(s)
                counters.append(
                    (stats.l1_calls, stats.l2_calls, stats.rho_calls, stats.traversal_calls)
                )

            enumerate_k(inst, k, sink=sink, stats=stats)
            per_k[k] = (group, stats, counters)
        records.append(
            SimpleNamespace(
                spec=spec,
                inst=inst,
                emitted=emitted,
                per_k=per_k,
                brute=brute_force_solutions(inst),
            )
        )
    return records


def _graph_doc(inst):
    edges = [
        [u, v] for u, nbrs in inst.oracle.adjacency.items() for v in nbrs if u < v
    ]
    return {"elements": inst.n, "system": {"kind": "graph", "edges": edges}}


def _parse_text_records(text):
    out = []
    for line in text.splitlines():
        elems_part = line.split("\t")[0]
        out.append(tuple(int(v) for v in elems_part.split()))
    return out


def test_criterion_1_brute_force_equivalence_solutions(corpus):
    failures = []
    for rec in corpus:
        got = [s.elements for s in rec.emitted]
        if len(got) != len(set(got)):
            failures.append(f"{rec.spec}: duplicate emissions")
        if set(got) != {s.elements for s in rec.brute}:
            failures.append(f"{rec.spec}: output differs from brute force")
    elapsed = time.monotonic() - _t0
    if elapsed >= 60:
        failures.append(f"criterion-1 corpus took {elapsed:.1f}s, budget is 60s")
    _finish(1, "brute-force equivalence, solutions", failures)


def test_criterion_2_brute_force_equivalence_components(corpus, tmp_path):
    failures = []
    graph_recs = [r for r in corpus if r.spec.kind == "graph"]
    for idx, rec in enumerate(graph_recs):
        path = write_doc(tmp_path, _graph_doc(rec.inst), f"g{idx}.json")
        code, out, err = invoke(["--input", path, "--components"])
        if code != 0:
            failures.append(f"{rec.spec}: exit {code}: {err.strip()}")
            continue
        got = _parse_text_records(out)
        want = {tuple(c) for c in materialize_components(rec.inst.oracle, rec.inst.n)}
        if len(got) != len(set(got)) or set(got) != want:
            failures.append(f"{rec.spec}: --components output differs from the family")
    for m in range(2, 7):
        doc = {
            "elements": m,
            "system": {"kind": "graph", "edges": [[i, i + 1] for i in range(1, m)]},
        }
        path = write_doc(tmp_path, doc, f"p{m}.json")
        code, out, _ = invoke(["--input", path, "--components"])
        got = _parse_text_records(out)
        if code != 0 or len(got) != m * (m + 1) // 2:
            failures.append(f"path P_{m}: {len(got)} records, want {m * (m + 1) // 2}")
        oracle = GraphConnectivityOracle(m, [(i, i + 1) for i in range(1, m)])
        if set(got) != {tuple(c) for c in materialize_components(oracle, m)}:
            failures.append(f"path P_{m}: record set differs from the family")
    _finish(2, "brute-force equivalence, components", failures)


def test_criterion_3_parent_correctness(corpus):
    failures = []
    checked = 0
    for rec in corpus:
        inst = rec.inst
        for s in rec.brute:
            if not 1 <= s.k <= inst.q - 1:
                continue
            if not any(t.k == s.k and s.elements < t.elements for t in rec.brute):
                continue  # root of its group
            got = parent(inst, s)
            want = brute_force_parent(inst, s, solutions=rec.brute)
            checked += 1
            if got.elements != want.elements:
                failures.append(
                    f"{rec.spec}: parent({sorted(s.elements)}) = "
                    f"{sorted(got.elements)}, brute force says {sorted(want.elements)}"
                )
    if checked == 0:
        failures.append("no non-root solutions were exercised")
    _finish(3, f"parent correctness ({checked} non-roots)", failures)


def test_criterion_4_base_laws(corpus):
    failures = []
    rng = random.Random(20260809)
    performed = 0
    while performed < 50:
        rec = rng.choice(corpus)
        inst = rec.inst
        jmask = rng.getrandbits(inst.q) << 1
        if not jmask:
            jmask = 1 << rng.randint(1, inst.q)
        j = IdSet._from_mask(inst.q, jmask)
        y = inst.elements_with_items(j)
        if not y:
            continue
        performed += 1
        for c in inst.oracle.l2(y):
            if not is_solution(inst, c):
                failures.append(
                    f"{rec.spec}: maximal component {sorted(c)} of slice "
                    f"{sorted(j)} is not a solution"
                )
    for rec in corpus:
        inst = rec.inst
        comps = materialize_components(inst.oracle, inst.n)
        for k in (0, inst.q):
            vk = inst.elements_with_item(k)
            inside = [c for c in comps if c <= vk]
            bases = {
                c
                for c in inside
                if not any(c < d for d in inside)
                and inst.common_item_set(c).min_id() == k
            }
            got = {s.elements for s in rec.per_k[k][0]}
            if got != bases:
                failures.append(f"{rec.spec}: group {k} output differs from its roots")
    _finish(4, "base laws", failures)


def test_criterion_5_delay_property(corpus):
    failures = []
    windows = 0
    for rec in corpus:
        inst = rec.inst
        dhat = inst.oracle.delta_hint()
        envelope = (inst.n + inst.q) * inst.q * dhat + inst.q + inst.q * dhat
        for k, (group, stats, counters) in rec.per_k.items():
            windows_k = [b[3] - a[3] for a, b in zip(counters, counters[1:])]
            if stats.max_interoutput_traversals != max(windows_k, default=0):
                failures.append(f"{rec.spec}: k={k}: streamed maximum disagrees with sink")
            if len(group) >= 2:
                m = max_interoutput_traversals(stats)
                if m > 3:
                    failures.append(f"{rec.spec}: k={k}: {m} traversals between outputs")
            for a, b in zip(counters, counters[1:]):
                windows += 1
                # l1 + l2 + rho calls; traversals are bounded separately above
                delta = sum(b[:3]) - sum(a[:3])
                if delta >= envelope:
                    failures.append(
                        f"{rec.spec}: k={k}: {delta} oracle calls between outputs, "
                        f"envelope {envelope}"
                    )
    if windows == 0:
        failures.append("no inter-output windows were exercised")
    _finish(5, f"delay property ({windows} windows)", failures)


def test_criterion_6_volume_pruning(corpus):
    failures = []
    for rec in corpus:
        unfiltered = {s.elements for s in rec.emitted}
        for p in (0, 1, 2):
            pruned = []
            enumerate_all(rec.inst, rho=SizeAbove(p), sink=pruned.append)
            got = {s.elements for s in pruned}
            want = {c for c in unfiltered if len(c) > p}
            if got != want:
                failures.append(f"{rec.spec}: threshold {p} output is not a filter")
    _finish(6, "volume pruning", failures)


def test_criterion_7_golden_trace(tmp_path):
    failures = []
    path = write_doc(tmp_path, P3_DOC, "p3.json")
    outputs = []
    for _ in range(2):
        code, out, err = invoke(["--input", path])
        if code != 0:
            failures.append(f"exit {code}: {err.strip()}")
        outputs.append(out)
    if outputs[0] != P3_GOLDEN:
        failures.append(f"got {outputs[0]!r}, want {P3_GOLDEN!r}")
    if outputs[0] != outputs[1]:
        failures.append("two runs differ byte for byte")
    _finish(7, "golden trace", failures)


def test_criterion_8_order_laws():
    failures = []
    universe = 5
    subsets = [
        IdSet(universe, c)
        for r in range(universe + 1)
        for c in itertools.combinations(range(1, universe + 1), r)
    ]
    for a, b in itertools.product(subsets, repeat=2):
        outcomes = (subset_lex_less(a, b), subset_lex_less(b, a), a == b)
        if sum(outcomes) != 1:
            failures.append(f"trichotomy fails for {sorted(a)} vs {sorted(b)}")
        if a.issuperset(b) and not subset_lex_leq(a, b):
            failures.append(f"superset {sorted(a)} does not precede {sorted(b)}")
    for a, b, c in itertools.permutations(subsets[:16], 3):
        if subset_lex_less(a, b) and subset_lex_less(b, c) and not subset_lex_less(a, c):
            failures.append("transitivity fails")
    _finish(8, "order laws", failures)
