"""Seeded instance documents for the benchmark's workloads.

Each workload turns a seed into a list of JSON instance documents in the
CLI's input format.  The program under test only ever sees those
documents.  Every workload keeps its structure fixed and lets the seed
relabel the elements, the way ``components-cycle`` permutes cycle
vertices.  Element labels decide every oracle query, each breadth-first
sweep and the lexicographic choice of parents, but not the size of the
output, so the load does not swing with the seed.  Item labels stay: they
decide the group of each solution and so the shape of every tree.

Measured over five seeds each: independent G(300, 3/n) draws gave 1,620
to 1,974 outputs and 270k to 360k ``l1`` calls; relabelling elements and
items of one draw moved the largest ``l1`` jump between two outputs from
1,928 to 3,755; relabelling elements only keeps it within 2,060-2,294 and
the ``l1`` count within 0.4%.

A seed picks one of ``LABELLINGS`` relabellings, ``seed mod LABELLINGS``,
so that every seed has its stream digest recorded in ``digests.json``
(see ``record.py``); seeds that agree modulo ``LABELLINGS`` give the
same documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

G300_N = 300
G300_Q = 14
G300_BASE_SEED = 1  # the ROADMAP reference draw: 1,967 solutions

LABELLINGS = 32

CYCLE_N = 45

EXPLICIT_BATCH = 8
EXPLICIT_N = 30
EXPLICIT_Q = 12
EXPLICIT_CHAINS = 20
EXPLICIT_ITEM_PROB = 0.85


def _permutation(rng: random.Random, n: int) -> List[int]:
    """A relabelling of ``[1, n]`` as a lookup list with a dummy slot 0."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [0] + perm


def _relabel(doc: dict, rng: random.Random) -> dict:
    """Copy of ``doc`` with its elements renamed at random; items keep their ids."""
    n = doc["elements"]
    pv = _permutation(rng, n)
    out = {"elements": n}
    if "sigma" in doc:
        sigma: List[List[int]] = [[] for _ in range(n)]
        for v, row in enumerate(doc["sigma"], start=1):
            sigma[pv[v] - 1] = list(row)
        out["items"] = doc["items"]
        out["sigma"] = sigma
    system = doc["system"]
    if system["kind"] == "graph":
        edges = [sorted((pv[u], pv[v])) for u, v in system["edges"]]
        out["system"] = {"kind": "graph", "edges": sorted(edges)}
    else:
        family = [sorted(pv[v] for v in c) for c in system["components"]]
        out["system"] = {"kind": "explicit", "components": family}
    return out


def g300_base() -> dict:
    """Sparse random graph: n = 300, edge probability 3/n, q = 14, items at 0.6."""
    rng = random.Random(G300_BASE_SEED)
    n, q = G300_N, G300_Q
    p = 3.0 / n
    edges = [
        [u, v]
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    sigma = [[i for i in range(1, q + 1) if rng.random() < 0.6] for _ in range(n)]
    return {"elements": n, "items": q, "sigma": sigma,
            "system": {"kind": "graph", "edges": edges}}


def cycle_base() -> dict:
    """The cycle 1-2-...-n-1; components mode reads no attributes."""
    n = CYCLE_N
    edges = [[v, v % n + 1] for v in range(1, n + 1)]
    return {"elements": n, "system": {"kind": "graph", "edges": edges}}


def explicit_base(index: int) -> dict:
    """Explicit family made of nested chains, so the family trees are deep.

    Each chain adds the elements of a random order one at a time and keeps
    every prefix from the first element up to a random length of at least
    n/2; repeated sets are kept once.
    """
    rng = random.Random(f"explicit-base/{index}")
    n, q = EXPLICIT_N, EXPLICIT_Q
    seen = set()
    family = []
    for _ in range(EXPLICIT_CHAINS):
        order = rng.sample(range(1, n + 1), n)
        chain: List[int] = []
        for v in order[: rng.randint(n // 2, n)]:
            chain.append(v)
            key = frozenset(chain)
            if key not in seen:
                seen.add(key)
                family.append(sorted(chain))
    sigma = [
        [i for i in range(1, q + 1) if rng.random() < EXPLICIT_ITEM_PROB]
        for _ in range(n)
    ]
    return {"elements": n, "items": q, "sigma": sigma,
            "system": {"kind": "explicit", "components": family}}


@dataclass(frozen=True)
class Workload:
    name: str
    components: bool  # run the CLI with --components
    documents: Callable[[int], List[dict]]


def labelling(seed: int) -> int:
    """The relabelling that ``seed`` selects, from 0 to ``LABELLINGS - 1``."""
    return seed % LABELLINGS


def _g300(seed: int) -> List[dict]:
    return [_relabel(g300_base(), random.Random(f"connectors-g300/{labelling(seed)}"))]


def _cycle(seed: int) -> List[dict]:
    return [_relabel(cycle_base(), random.Random(f"components-cycle/{labelling(seed)}"))]


def _explicit(seed: int) -> List[dict]:
    rng = random.Random(f"connectors-explicit/{labelling(seed)}")
    return [_relabel(explicit_base(i), rng) for i in range(EXPLICIT_BATCH)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("connectors-g300", False, _g300),
        Workload("components-cycle", True, _cycle),
        Workload("connectors-explicit", False, _explicit),
    )
}
