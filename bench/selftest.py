"""Self-test of the output checker: it must reject broken record streams.

Run from the repository root::

    python3 bench/selftest.py

For every workload it runs the CLI once on the seed-0 documents, requires
the checker to accept that stream and its recorded digest, and then
requires it to reject four corruptions of the first document's stream: a
dropped record, a duplicated record, a record that is not a solution (with
items and k made consistent, so only the solution test can object) and
two records swapped.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import json
import shutil
import sys
from typing import List, Optional

from run import ROOT, SRC, Invocation, recorded, write_documents
from check import check_order, check_stream
from workloads import WORKLOADS

SEED = 0


def _record(doc: dict, elems: List[int], components: bool) -> bytes:
    """A record for ``elems`` whose items and k agree with the document."""
    if components:
        items = [i for i in range(1, doc["elements"] + 1) if i not in elems]
    else:
        rows = [set(doc["sigma"][v - 1]) for v in elems]
        items = sorted(set.intersection(*rows))
    rec = {"elements": elems, "items": items, "k": items[0] if items else 0}
    return (json.dumps(rec) + "\n").encode()


def _non_solution(doc: dict, lines: List[bytes], components: bool) -> Optional[List[bytes]]:
    """Replace one record X by X minus an element v, a set that cannot be a solution.

    In solution mode, v is chosen so that X - v keeps X's items: X is then a
    strictly larger component with the same items.  In components mode on a
    cycle, v is an inner vertex of an arc, which leaves a disconnected set.
    """
    for idx, line in enumerate(lines):
        rec = json.loads(line)
        elems = rec["elements"]
        if len(elems) < 3:
            continue
        for v in elems:
            rest = [u for u in elems if u != v]
            if components:
                edges = {frozenset(e) for e in doc["system"]["edges"]}
                touching = sum(frozenset((v, u)) in edges for u in rest)
                if touching != 2 or len(elems) == doc["elements"]:
                    continue
            elif json.loads(_record(doc, rest, False))["items"] != rec["items"]:
                continue
            out = list(lines)
            out[idx] = _record(doc, rest, components)
            return out
    return None


def _swapped(lines: List[bytes]) -> List[bytes]:
    out = list(lines)
    mid = len(out) // 2
    out[mid], out[mid + 1] = out[mid + 1], out[mid]
    return out


def main() -> int:
    failures = 0
    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            docs = workload.documents(SEED)
            paths = write_documents(docs, workdir)
            streams = [Invocation(p, workload.components).lines for p in paths]
            want = recorded(name, SEED)
            doc, lines = docs[0], streams[0]
            mid = len(lines) // 2
            drop_kind = "count" if workload.components else "missing"
            cases: List[tuple] = [
                ("as emitted", lines, None),
                ("dropped record", lines[:mid] + lines[mid + 1:], drop_kind),
                ("duplicated record", lines[: mid + 1] + lines[mid:], "duplicate"),
                ("non-solution record", _non_solution(doc, lines, workload.components),
                 "not a solution"),
                ("reordered stream", _swapped(lines), "order"),
            ]
            for label, bad, kind in cases:
                if bad is None:
                    print(f"FAIL {name}: {label}: no suitable record to corrupt")
                    failures += 1
                    continue
                problems = check_stream(doc, bad, workload.components)
                if kind is None:  # the other documents are never corrupted
                    for other_doc, other in zip(docs[1:], streams[1:]):
                        problems += check_stream(other_doc, other, workload.components)
                problems += check_order([bad] + streams[1:], want and want["digest"])
                if kind is None:
                    ok = not problems
                else:
                    ok = any(p.startswith(kind) for p in problems)
                verdict = "ok  " if ok else "FAIL"
                failures += not ok
                shown = "; ".join(p[:70] for p in problems[:2]) or "accepted"
                print(f"{verdict} {name}: {label}: {shown}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("checker self-test:", "passed" if not failures else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    if not (SRC / "polyenum" / "cli.py").is_file():
        sys.exit(f"error: no polyenum sources under {SRC}")
    sys.exit(main())
