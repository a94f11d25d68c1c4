"""Byte-exact output past the brute-force limit of 12 vertices.

The criterion-7 golden trace pins a 3-vertex path.  These digests pin the
CLI's ``--format json`` stream on two larger inputs, so a change to the
traversal order, the parent choice or the oracles' tie-breaks shows even
where ``--verify`` cannot follow.
"""

import hashlib
import io
import json
import random

from polyenum.cli import run


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
