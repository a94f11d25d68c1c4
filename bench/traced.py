"""Traced in-process run: where the enumeration's time and oracle calls go.

Nothing under ``src/`` changes.  The benchmark wraps the public surface
from its own classes instead:

* ``TracedOracle``, a ``SetSystemOracle`` proxy, times ``l1``/``l2`` and
  counts distinct queries, distinct ``l1`` hulls and ``None`` answers;
* ``TracedInstance`` / ``TracedReduced`` time the attribute algebra
  (``common_item_set``, ``elements_with_items``, ``elements_with_item``)
  as the ``core`` or the ``components`` layer;
* ``RecordSink`` renders each solution as the CLI's JSON record, under a
  ``cli.render`` span.

One ``enumerator`` span covers ``enumerate_all``; every other span nests
in it.  A span's self time is its duration minus its children's, so the
enumerator's self time is the traversal itself: wall time minus oracle,
algebra and rendering.  It also holds the tracer's own bookkeeping, which
``trace.overhead_frac`` (traced over untraced enumeration time, minus 1)
bounds.  Spans stay in memory as flat arrays until their pass ends, then
go to ``.bench_out/<workload>.spans.bin``, described by ``.spans.json``.

Each pass, per document: parse through the CLI's public entry point
(``cli.parse_s``), enumerate untraced, enumerate traced, then call the
public ``parent()`` with a fresh ``OracleStats`` on every emitted
non-root solution (``enumerator.parent.*``).  Each of the three measured
phases loads its own instance and oracle, as a CLI run would, so that
none starts on state an earlier phase left behind.  Passes repeat until
the time is spent, at least twice; their counts must agree exactly.
Against ``digests.json`` only the stream digest and the output count are
compared: the call counts are what a faster program changes.
"""

from __future__ import annotations

import io
import json
import os
import statistics
from array import array
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import calibration
from check import check_stream, digest
from polyenum import (
    ExplicitFamilyOracle,
    GraphConnectivityOracle,
    Instance,
    OracleStats,
    ReducedInstance,
    SetSystemOracle,
    cli,
    enumerate_all,
    parent,
    testkit,
)

ALGEBRA = ("common_item_set", "elements_with_items", "elements_with_item")


class Tracer:
    """Spans as flat arrays: name id, start, end, parent span, run id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.current = -1
        self.run_id = 0

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.current = i
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.current = self.parent[i]

    def summarize(self, first: int) -> Dict[str, List[float]]:
        """``[calls, self seconds]`` per span name, over spans from ``first`` on."""
        n = len(self.name)
        child = [0.0] * (n - first)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name, start, end, par = self.name, self.start, self.end, self.parent
        # A child opens after its parent, so walking backwards settles every
        # child before its parent is read.
        for i in range(n - 1, first - 1, -1):
            d = end[i] - start[i]
            p = par[i]
            if p >= first:
                child[p - first] += d
            calls[name[i]] += 1
            self_s[name[i]] += d - child[i - first]
        return {nm: [calls[k], self_s[k]] for k, nm in enumerate(self.names)}

    COLUMNS = ("name", "start", "end", "parent", "run")

    def flush(self, fh) -> int:
        """Append the spans held so far to ``fh`` as one chunk and forget them.

        A chunk stores each column in turn, every column as long as the
        chunk.  Returns the chunk's span count.
        """
        count = len(self.name)
        for col in self.COLUMNS:
            getattr(self, col).tofile(fh)
            setattr(self, col, array(getattr(self, col).typecode))
        self.current = -1
        return count

    def describe(self, chunks: List[int]) -> dict:
        return {
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in self.COLUMNS],
            "chunks": chunks,
            "layout": "per chunk, each column in turn, as many items as the chunk has spans",
        }


class TracedOracle(SetSystemOracle):
    """Proxy that times every query and counts what it asked and got."""

    def __init__(self, inner: SetSystemOracle, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.l1_id = tracer.name_id("oracles.l1")
        self.l2_id = tracer.name_id("oracles.l2")
        self.l1_queries: set = set()
        self.l1_hulls: set = set()
        self.l1_none = 0
        self.l2_queries: set = set()
        self.l2_returned = 0

    def l1(self, x, y):
        tr = self.tracer
        i = tr.open(self.l1_id)
        try:
            z = self.inner.l1(x, y)
        finally:
            tr.close(i)
        self.l1_queries.add((x, y))
        self.l1_hulls.add(y)
        if z is None:
            self.l1_none += 1
        return z

    def l2(self, y):
        tr = self.tracer
        i = tr.open(self.l2_id)
        try:
            out = self.inner.l2(y)
        finally:
            tr.close(i)
        self.l2_queries.add(y)
        self.l2_returned += len(out)
        return out

    def delta_hint(self) -> int:
        return self.inner.delta_hint()


class _TracedAlgebra:
    """Times the attribute algebra of whichever Instance class follows it."""

    layer = ""

    def _start_tracing(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.span_ids = [tracer.name_id(f"{self.layer}.{m}") for m in ALGEBRA]

    def common_item_set(self, x):
        tr = self.tracer
        i = tr.open(self.span_ids[0])
        try:
            return super().common_item_set(x)
        finally:
            tr.close(i)

    def elements_with_items(self, items):
        tr = self.tracer
        i = tr.open(self.span_ids[1])
        try:
            return super().elements_with_items(items)
        finally:
            tr.close(i)

    def elements_with_item(self, i_):
        tr = self.tracer
        i = tr.open(self.span_ids[2])
        try:
            return super().elements_with_item(i_)
        finally:
            tr.close(i)


class TracedInstance(_TracedAlgebra, Instance):
    layer = "core"

    def __init__(self, plain: Instance, tracer: Tracer) -> None:
        sigma = [list(plain.sigma(v)) for v in range(1, plain.n + 1)]
        Instance.__init__(self, plain.n, plain.q, sigma, TracedOracle(plain.oracle, tracer))
        self._start_tracing(tracer)


class TracedReduced(_TracedAlgebra, ReducedInstance):
    layer = "components"

    def __init__(self, plain: ReducedInstance, tracer: Tracer) -> None:
        ReducedInstance.__init__(self, plain.n, TracedOracle(plain.oracle, tracer))
        self._start_tracing(tracer)


class RecordSink:
    """Renders solutions as the CLI's ``--format json`` records, in memory."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.out = io.StringIO()
        self.solutions: list = []
        self.tracer = tracer
        if tracer is not None:
            self.span_id = tracer.name_id("cli.render")

    def _render(self, s) -> None:
        rec = {"elements": list(s.elements), "items": list(s.items), "k": s.k}
        print(json.dumps(rec), file=self.out, flush=True)

    def __call__(self, s) -> None:
        tr = self.tracer
        if tr is None:
            self._render(s)
            return
        i = tr.open(self.span_id)
        try:
            self._render(s)
        finally:
            tr.close(i)
        self.solutions.append(s)

    def lines(self) -> List[bytes]:
        return self.out.getvalue().encode().splitlines(keepends=True)


def load_plain(path: Path, doc: dict, components: bool, problems: List[str]):
    """The plain instance the CLI would build, and the time the CLI takes to parse."""
    n = doc["elements"]
    if not components:
        t0 = perf_counter()
        inst = cli.parse_instance(str(path))
        return inst, perf_counter() - t0
    # --components has no public parse function; run() with a group id out
    # of range loads, validates and builds the oracle, then stops with exit
    # 2 before enumerating.
    err = io.StringIO()
    t0 = perf_counter()
    code = cli.run(["--input", str(path), "--components", "--k", str(n + 1)],
                   stdout=io.StringIO(), stderr=err)
    parse_s = perf_counter() - t0
    if code != 2 or "--k" not in err.getvalue():
        problems.append(f"parse: unexpected exit {code}: {err.getvalue().strip()}")
    system = doc["system"]
    if system["kind"] == "graph":
        oracle = GraphConnectivityOracle(n, system["edges"])
    else:
        oracle = ExplicitFamilyOracle(n, system["components"])
    return ReducedInstance(n, oracle), parse_s


def _traced_document(tracer, probe, path, doc, components, check, problems) -> dict:
    """Parse, enumerate untraced and traced, and sweep parent() for one document.

    Times are in reference seconds, scaled by the machine speed measured
    while the document ran (see ``calibration.py``).
    """
    doc_start = perf_counter()
    plain, parse_s = load_plain(path, doc, components, problems)
    fresh, _ = load_plain(path, doc, components, problems)
    swept, _ = load_plain(path, doc, components, problems)

    sink = RecordSink()
    t0 = perf_counter()
    enumerate_all(plain, sink=sink)
    untraced_s = perf_counter() - t0
    untraced = sink.lines()

    first = len(tracer.name)
    inst = TracedReduced(fresh, tracer) if components else TracedInstance(fresh, tracer)
    sink = RecordSink(tracer)
    stats = OracleStats()
    root = tracer.open(tracer.name_id("enumerator"))
    try:
        enumerate_all(inst, sink=sink, stats=stats)
    finally:
        tracer.close(root)
    traced_s = tracer.end[root] - tracer.start[root]
    lines = sink.lines()
    layers = tracer.summarize(first)

    if lines != untraced:
        problems.append("trace: traced and untraced record streams differ")
    if check:
        problems.extend(check_stream(doc, lines, components))
    oracle = inst.oracle
    proxy_calls = [layers.get(f"oracles.{q}", [0])[0] for q in ("l1", "l2")]
    if proxy_calls != [stats.l1_calls, stats.l2_calls]:
        problems.append("trace: proxy call counts differ from OracleStats")

    # parent() on every emitted non-root solution of an inner group, on
    # an instance of its own.  Roots are the maximal components of the
    # elements carrying item k; the untraced instance, which no later
    # phase times, answers that test.
    p_calls = p_l1 = 0
    p_s = 0.0
    for s in sink.solutions:
        if not 1 <= s.k <= plain.q - 1:
            continue
        if plain.oracle.l1(s.elements, plain.elements_with_item(s.k)) == s.elements:
            continue
        ps = OracleStats()
        t0 = perf_counter()
        parent(swept, s, stats=ps)
        p_s += perf_counter() - t0
        p_calls += 1
        p_l1 += ps.l1_calls

    f = probe.scale(doc_start, perf_counter())
    return {
        "lines": lines,
        "layers": {name: [calls, self_s * f] for name, (calls, self_s) in layers.items()},
        "parse_s": parse_s * f,
        "untraced_s": untraced_s * f,
        "traced_s": traced_s * f,
        "outputs": len(lines),
        "l1_distinct": len(oracle.l1_queries),
        "l1_hulls": len(oracle.l1_hulls),
        "l1_none": oracle.l1_none,
        "l2_distinct": len(oracle.l2_queries),
        "l2_returned": oracle.l2_returned,
        "traversal_calls": stats.traversal_calls,
        "max_interoutput_traversals": testkit.max_interoutput_traversals(stats),
        "l1_calls": stats.l1_calls,
        "l2_calls": stats.l2_calls,
        "parent_calls": p_calls,
        "parent_s": p_s * f,
        "parent_l1": p_l1,
    }


EXACT = ("outputs", "l1_calls", "l2_calls", "traversal_calls", "max_interoutput_traversals")


def _pass(tracer, probe, workload, docs, paths, pass_no, problems) -> dict:
    """Sum of one pass over the workload's documents."""
    per_doc = []
    for i, (doc, path) in enumerate(zip(docs, paths)):
        tracer.run_id = pass_no * len(docs) + i
        per_doc.append(_traced_document(tracer, probe, path, doc, workload.components,
                                        pass_no == 0, problems))
    total: Dict[str, float] = {}
    for d in per_doc:
        for k, v in d.items():
            if k in ("lines", "layers"):
                continue
            total[k] = total.get(k, 0) + v
    total["max_interoutput_traversals"] = max(d["max_interoutput_traversals"] for d in per_doc)
    layers: Dict[str, List[float]] = {}
    for d in per_doc:
        for name, (calls, self_s) in d["layers"].items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    total["layers"] = layers
    total["digest"] = digest(line for d in per_doc for line in d["lines"])
    return total


def measure(workload, docs: List[dict], paths: List[Path], seconds: float,
            want: Optional[dict], out_dir: Path) -> dict:
    tracer = Tracer()
    problems: List[str] = []
    passes: List[dict] = []
    chunks: List[int] = []
    failed = 0
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / workload.name
    os.sched_setaffinity(0, {calibration.cpus()[0]})  # the probe takes the other CPU
    start = perf_counter()
    # One pass's spans stay in memory; the file keeps every pass.
    with open(stem.with_suffix(".spans.bin"), "wb") as fh, calibration.Probe() as probe:
        while True:
            t0 = perf_counter()
            before = len(problems)
            passes.append(_pass(tracer, probe, workload, docs, paths, len(passes), problems))
            failed += len(problems) > before
            chunks.append(tracer.flush(fh))
            # Two passes at least, so that the counts are seen to repeat.
            if len(passes) >= 2 and perf_counter() - start + (perf_counter() - t0) > seconds:
                break
    with open(stem.with_suffix(".spans.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.describe(chunks), fh)

    first = passes[0]
    for p in passes[1:]:
        for k in EXACT + ("digest",):
            if p[k] != first[k]:
                problems.append(f"repeat: {k} {p[k]} differs from the first pass's {first[k]}")
    if want is None:
        problems.append("order: no digest recorded for this seed")
    else:
        for k in ("outputs", "digest"):
            if want[k] != first[k]:
                problems.append(f"order: {k} {first[k]} differs from the recorded {want[k]}")
    if first["max_interoutput_traversals"] > 3:
        problems.append(f"delay: {first['max_interoutput_traversals']} traversals between outputs")

    def med(f):
        return statistics.median(f(p) for p in passes)

    def layer(name, p):
        return p["layers"].get(name, [0, 0.0])

    def algebra_self(m, p):
        return layer(f"core.{m}", p)[1] + layer(f"components.{m}", p)[1]

    l1 = first["layers"]["oracles.l1"][0]
    l2 = first["layers"]["oracles.l2"][0]
    outputs = first["outputs"]
    metrics = {
        "oracles.l1.calls": (l1, "count"),
        "oracles.l1.self_s": (med(lambda p: layer("oracles.l1", p)[1]), "s"),
        "oracles.l1.distinct_frac": (first["l1_distinct"] / l1, "ratio"),
        "oracles.l1.distinct_hulls": (first["l1_hulls"], "count"),
        "oracles.l1.none_frac": (first["l1_none"] / l1, "ratio"),
        "oracles.l2.calls": (l2, "count"),
        "oracles.l2.self_s": (med(lambda p: layer("oracles.l2", p)[1]), "s"),
        "oracles.l2.distinct_frac": (first["l2_distinct"] / l2, "ratio"),
        "oracles.l2.returned": (first["l2_returned"], "count"),
    }
    for m in ALGEBRA:
        for lay in ("core", "components"):
            metrics[f"{lay}.{m}.calls"] = (layer(f"{lay}.{m}", first)[0], "count")
    for m in ALGEBRA:
        metrics[f"algebra.{m}.self_s"] = (med(lambda p: algebra_self(m, p)), "s")
    metrics.update({
        "cli.parse_s": (med(lambda p: p["parse_s"]), "s"),
        "cli.render.self_s": (med(lambda p: layer("cli.render", p)[1]), "s"),
        "enumerator.self_s": (med(lambda p: layer("enumerator", p)[1]), "s"),
        "enumerator.outputs": (outputs, "count"),
        "enumerator.traversal_calls": (first["traversal_calls"], "count"),
        "enumerator.max_interoutput_traversals": (first["max_interoutput_traversals"], "count"),
        "enumerator.l1_per_output": (l1 / outputs, "ratio"),
        "enumerator.child_yield": (outputs / first["l2_returned"], "ratio"),
        "enumerator.parent.calls": (first["parent_calls"], "count"),
        "enumerator.parent.s_per_call": (med(lambda p: p["parent_s"] / p["parent_calls"]), "s"),
        "enumerator.parent.l1_per_call": (first["parent_l1"] / first["parent_calls"], "ratio"),
        "trace.overhead_frac": (med(lambda p: p["traced_s"] / p["untraced_s"] - 1), "ratio"),
    })

    # Printed only: per-layer self time and each span's share of the
    # traced enumeration, to set against earlier profiles.
    traced_s = med(lambda p: p["traced_s"])
    notes: Dict[str, object] = {"passes": len(passes), "digest": first["digest"],
                                "traced_enumeration_s": round(traced_s, 4),
                                "untraced_enumeration_s": round(med(lambda p: p["untraced_s"]), 4)}
    for name in sorted(first["layers"]):
        s = med(lambda p: layer(name, p)[1])
        notes[f"self time of {name}"] = f"{s:.4f} s, {100 * s / traced_s:.1f}% of the traced enumeration"
    return {"problems": problems, "attempted": len(passes),
            "failed": failed,
            "metrics": metrics, "notes": notes}
