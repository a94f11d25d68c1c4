"""Record each workload's stream digest and exact counts, per seed.

Run from the repository root, at the commit whose output is the reference::

    python3 bench/record.py

For each of the ``LABELLINGS`` relabellings a seed can select it runs the
CLI once per document, checks the stream, enumerates the same documents
in process with ``OracleStats`` and requires both streams to be
byte-identical.  It stores the digest of the stream, the output count,
the ``l1``/``l2`` and traversal counts and the largest traversal jump
between outputs in ``bench/digests.json``.  ``run.py`` then requires every
later run to repeat the digest and the output count exactly, whatever its
seed; the other counts are kept for reference, since a faster program may
lower them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import DIGESTS, ROOT, SRC, Invocation, write_documents
from check import check_stream, digest
from workloads import LABELLINGS, WORKLOADS

sys.path.insert(0, str(SRC))

from polyenum import OracleStats, enumerate_all, testkit  # noqa: E402
from traced import RecordSink, load_plain  # noqa: E402


def record(workload, seed: int, workdir) -> dict:
    docs = workload.documents(seed)
    paths = write_documents(docs, workdir)
    lines = []
    counts = {"outputs": 0, "l1_calls": 0, "l2_calls": 0, "traversal_calls": 0,
              "max_interoutput_traversals": 0}
    for doc, path in zip(docs, paths):
        inv = Invocation(path, workload.components)
        problems = check_stream(doc, inv.lines, workload.components)
        if inv.returncode != 0 or problems:
            sys.exit(f"{workload.name} seed {seed}: exit {inv.returncode}, {problems[:3]}")
        plain, _ = load_plain(path, doc, workload.components, problems)
        sink = RecordSink()
        stats = OracleStats()
        enumerate_all(plain, sink=sink, stats=stats)
        if problems or sink.lines() != inv.lines:
            sys.exit(f"{workload.name} seed {seed}: in-process stream differs from the CLI's")
        lines += inv.lines
        counts["outputs"] += len(inv.lines)
        counts["l1_calls"] += stats.l1_calls
        counts["l2_calls"] += stats.l2_calls
        counts["traversal_calls"] += stats.traversal_calls
        counts["max_interoutput_traversals"] = max(
            counts["max_interoutput_traversals"], testkit.max_interoutput_traversals(stats))
    return {"digest": digest(lines), **counts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                    help="only this workload (repeatable; default: all)")
    args = ap.parse_args()
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    workdir = ROOT / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload or list(WORKLOADS):
            rows = {str(s): record(WORKLOADS[name], s, workdir) for s in range(LABELLINGS)}
            table[name] = rows
            with open(DIGESTS, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name}: recorded labellings 0-{LABELLINGS - 1}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
