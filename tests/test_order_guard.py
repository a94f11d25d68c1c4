"""Byte-exact output past the brute-force limit of 12 vertices.

The criterion-7 golden trace pins a 3-vertex path.  These digests pin the
CLI's ``--format json`` stream on larger inputs, so a change to the
traversal order, the parent choice or the oracles' tie-breaks shows even
where ``--verify`` cannot follow.  The ``--stats`` counts beside them pin
the oracle work: a change that only removes overhead keeps them exact.
The explicit families here are small enough for the brute-force
reference, so the last tests check their whole output against it.
"""

import hashlib
import io
import json
import random

import pytest

from polyenum import ExplicitFamilyOracle, Instance, enumerate_all, enumerate_components
from polyenum.cli import run
from polyenum.core import lex_sort_key
from polyenum.testkit import brute_force_solutions


def sparse_graph_doc(seed, n, q):
    """G(n, 3/n) with each item held with probability 0.6."""
    rng = random.Random(seed)
    p = 3.0 / n
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    sigma = [[i for i in range(1, q + 1) if rng.random() < 0.6] for _ in range(n)]
    return {"elements": n, "items": q, "sigma": sigma,
            "system": {"kind": "graph", "edges": edges}}


def cycle_doc(n):
    return {"elements": n, "system": {"kind": "graph",
                                      "edges": [[v, v % n + 1] for v in range(1, n + 1)]}}


def nested_chain_doc(seed, n, q, chains):
    """Explicit family of nested chains: every prefix of random element orders.

    Each chain keeps the prefixes from one element up to a random length of
    at least n/2; repeated sets are kept once.  Items are held with
    probability 0.85, so the family trees are deep.
    """
    rng = random.Random(seed)
    seen, family = set(), []
    for _ in range(chains):
        order = rng.sample(range(1, n + 1), n)
        chain = []
        for v in order[: rng.randint(n // 2, n)]:
            chain.append(v)
            key = frozenset(chain)
            if key not in seen:
                seen.add(key)
                family.append(sorted(chain))
    sigma = [[i for i in range(1, q + 1) if rng.random() < 0.85] for _ in range(n)]
    return {"elements": n, "items": q, "sigma": sigma,
            "system": {"kind": "explicit", "components": family}}


def json_stream(tmp_path, doc, *flags):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    assert run(["--input", str(path), "--format", "json", *flags], stdout=out, stderr=err) == 0, err.getvalue()
    data = out.getvalue().encode("utf-8")
    return data.count(b"\n"), hashlib.sha256(data).hexdigest()


def test_sparse_graph_80_vertices(tmp_path):
    records, digest = json_stream(tmp_path, sparse_graph_doc(7, 80, 8))
    assert records == 196
    assert digest == "ae694e91b104f669504391cf74459572a21de4371634921211334ee04625e268"


def test_components_of_a_20_cycle(tmp_path):
    # every arc of the cycle (20 starts, lengths 1 to 19) plus the cycle
    records, digest = json_stream(tmp_path, cycle_doc(20), "--components")
    assert records == 20 * 19 + 1
    assert digest == "79a61126b1e4c52e44a5899a1f0f075cc46b77ecd1879808cfa85d03b67307d3"


def stats(tmp_path, doc, *flags):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    assert run(["--input", str(path), "--format", "json", "--stats", *flags],
               stdout=out, stderr=err) == 0, err.getvalue()
    counts = dict(line.split("=") for line in err.getvalue().splitlines())
    return {k: int(counts[k]) for k in ("l1_calls", "l2_calls", "rho_calls", "traversal_calls")}


# Counts recorded with the digests above, on the same inputs.

def test_sparse_graph_80_vertices_call_counts(tmp_path):
    assert stats(tmp_path, sparse_graph_doc(7, 80, 8)) == {
        "l1_calls": 5688, "l2_calls": 450, "rho_calls": 196, "traversal_calls": 194}


def test_components_of_a_20_cycle_call_counts(tmp_path):
    assert stats(tmp_path, cycle_doc(20), "--components") == {
        "l1_calls": 10923, "l2_calls": 2472, "rho_calls": 381, "traversal_calls": 379}


def test_explicit_nested_chains_30_elements(tmp_path):
    doc = nested_chain_doc(3, 30, 12, 20)
    records, digest = json_stream(tmp_path, doc)
    assert records == 126
    assert digest == "2df3ab5751a7f9d2bc5b69dd9072e6f8cb4e35301bd1410a34451544f57493f6"
    assert stats(tmp_path, doc) == {
        "l1_calls": 2066, "l2_calls": 618, "rho_calls": 126, "traversal_calls": 125}


def nested_chain_instance(seed):
    doc = nested_chain_doc(seed, 30, 12, 20)
    family = doc["system"]["components"]
    # Several machine words of member bitmap per element.
    assert 400 <= len(family) <= 500
    return Instance(30, 12, doc["sigma"], ExplicitFamilyOracle(30, family))


@pytest.mark.parametrize("seed", range(100, 110))
def test_nested_chains_match_brute_force(seed):
    inst = nested_chain_instance(seed)
    got = []
    enumerate_all(inst, sink=got.append)
    got.sort(key=lambda s: (s.k, lex_sort_key(s.elements)))
    assert got == brute_force_solutions(inst)


@pytest.mark.parametrize("seed", range(100, 110))
def test_nested_chains_components_are_the_family(seed):
    oracle = nested_chain_instance(seed).oracle
    got = []
    enumerate_components(oracle, 30, sink=got.append)
    elements = [s.elements for s in got]
    assert len(elements) == len(set(elements))
    assert set(elements) == set(oracle.family)
