"""The command line: document parsing, records, exit codes and end-to-end runs.

In process, these tests check each document field's diagnostics, the
text and JSON records, ``--verify``'s reports, and the exit codes of
input errors (2), a broken pipe (141) and an interrupt (130).
``test_cli_end_to_end`` runs the module in a child process, one row per
document and flags, at sizes the in-process tests do not reach.
"""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import polyenum
from polyenum import ExplicitFamilyOracle, GraphConnectivityOracle, IdSet
from polyenum.cli import InstanceFormatError, _verify, parse_instance, run
from polyenum import cli, testkit
from polyenum.enumerator import Solution

from conftest import P3_DOC, P3_GOLDEN, invoke, write_doc


DOCS = Path(__file__).parents[1] / "docs"


def src_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(polyenum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestParseInstance:
    def test_p3_round_trip(self, tmp_path, p3):
        inst = parse_instance(write_doc(tmp_path, P3_DOC))
        assert (inst.n, inst.q) == (3, 2)
        for v in range(1, 4):
            assert inst.sigma(v) == p3.sigma(v)
        assert isinstance(inst.oracle, GraphConnectivityOracle)
        assert inst.oracle.adjacency == p3.oracle.adjacency

    def test_explicit_round_trip(self, tmp_path):
        doc = {
            "elements": 3,
            "items": 2,
            "sigma": [[1], [1, 2], [2]],
            "system": {"kind": "explicit", "components": [[2], [1, 2]]},
        }
        inst = parse_instance(write_doc(tmp_path, doc))
        assert isinstance(inst.oracle, ExplicitFamilyOracle)
        assert [tuple(c) for c in inst.oracle.family] == [(2,), (1, 2)]

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.update(sigma=[[1], [1, 3], [2]]), "sigma[1]"),
            (lambda d: d.update(sigma=[[1], [1, 2]]), "sigma"),
            (lambda d: d.update(sigma=[[1], [1, 1], [2]]), "sigma[1]"),
            (lambda d: d.update(elements=0), "elements"),
            (lambda d: d.pop("items"), "items"),
            (lambda d: d["system"].update(kind="weird"), "system.kind"),
            (lambda d: d["system"].update(edges=[[1, 1]]), "self-loop"),
            (lambda d: d["system"].update(edges=[[1, 2], [2, 1]]), "duplicate edge"),
            (lambda d: d["system"].update(edges=[[0, 2]]), "edges[0]"),
        ],
    )
    def test_field_diagnostics(self, tmp_path, mutate, needle):
        doc = json.loads(json.dumps(P3_DOC))
        mutate(doc)
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(write_doc(tmp_path, doc))
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "components, needle",
        [
            ([[1], [1]], "duplicate component"),
            ([[]], "empty component"),
            ([[1, 1]], "repeated element"),
            ([[5]], "outside [1, 3]"),
        ],
    )
    def test_explicit_system_diagnostics(self, tmp_path, components, needle):
        doc = json.loads(json.dumps(P3_DOC))
        doc["system"] = {"kind": "explicit", "components": components}
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(write_doc(tmp_path, doc))
        assert needle in str(exc.value)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"elements": 3,\n  "items": }')
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(str(path))
        assert "line 2" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            parse_instance(str(tmp_path / "nope.json"))


class TestRun:
    def test_p3_golden_text(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        code, out, err = invoke(["--input", path])
        assert code == 0
        assert out == P3_GOLDEN

    def test_min_size_prunes(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        code, out, _ = invoke(["--input", path, "--min-size", "1"])
        assert code == 0
        assert out == "1 2 3\t-\n1 2\t1\n2 3\t2\n"

    def test_components_mode(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        code, out, err = invoke(["--input", path, "--components"])
        assert code == 0
        records = out.splitlines()
        assert len(records) == 6
        assert "warning" in err and "sigma" in err
        got = {tuple(int(v) for v in line.split("\t")[0].split()) for line in records}
        assert got == {(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)}

    def test_components_mode_without_sigma_is_quiet(self, tmp_path):
        doc = {"elements": 3, "system": P3_DOC["system"]}
        code, out, err = invoke(["--input", write_doc(tmp_path, doc), "--components"])
        assert code == 0
        assert len(out.splitlines()) == 6
        assert "warning" not in err

    def test_json_format_round_trips(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        code, out, _ = invoke(["--input", path, "--format", "json"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"elements": [1, 2, 3], "items": [], "k": 0}
        assert [r["elements"] for r in records] == [[1, 2, 3], [1, 2], [2], [2, 3]]
        for r in records:
            assert sorted(r["elements"]) == r["elements"]
            assert sorted(r["items"]) == r["items"]

    def test_single_group(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        code, out, _ = invoke(["--input", path, "--k", "1"])
        assert code == 0
        assert out == "1 2\t1\n2\t1 2\n"

    def test_group_out_of_range(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        # --components --k n+1 loads and checks the document, then stops
        # before enumerating: bench/traced.py parses that way.
        for extra in (["--k", "9"], ["--components", "--k", "4"]):
            code, out, err = invoke(["--input", path, *extra])
            assert code == 2
            assert "--k" in err
            assert out == ""

    def test_verify_ok(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        for extra in ([], ["--components"], ["--min-size", "1"], ["--k", "1"]):
            code, _, err = invoke(["--input", path, "--verify", *extra])
            assert code == 0, err
            assert "verify: ok" in err

    def test_verify_mismatch_exits_1(self, tmp_path, monkeypatch):
        path = write_doc(tmp_path, P3_DOC)

        def wrong(inst):
            return []

        monkeypatch.setattr(testkit, "brute_force_solutions", wrong)
        code, _, err = invoke(["--input", path, "--verify"])
        assert code == 1
        assert "MISMATCH" in err

    def test_stats_lines(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        code, _, err = invoke(["--input", path, "--stats"])
        assert code == 0
        got = dict(line.split("=") for line in err.splitlines())
        assert int(got["outputs"]) == 4
        assert int(got["l1_calls"]) > 0
        assert int(got["l2_calls"]) > 0
        assert int(got["max_interoutput_traversals"]) <= 3
        assert int(got["delta_hint"]) == 3

    def test_validation_error_exits_2(self, tmp_path):
        doc = json.loads(json.dumps(P3_DOC))
        doc["sigma"][0] = [9]
        code, out, err = invoke(["--input", write_doc(tmp_path, doc)])
        assert code == 2
        assert not out
        assert "error" in err and "sigma[0]" in err

    @pytest.mark.parametrize("mode", [[], ["--components"]], ids=["solutions", "components"])
    @pytest.mark.parametrize(
        "content",
        [
            b'{"elements": 3, "items": "\xff"}',
            b'{"elements": 1' + b"0" * 5000 + b"}",
            b'{"elements": ' + b"[" * 100000 + b"]" * 100000 + b"}",
        ],
        ids=["not-utf8", "int-past-digit-limit", "nested-too-deeply"],
    )
    def test_undecodable_input_exits_2(self, tmp_path, mode, content):
        path = tmp_path / "instance.json"
        path.write_bytes(content)
        code, out, err = invoke(["--input", str(path), *mode])
        assert code == 2
        assert not out
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    # Counts past sys.maxsize // 8 are refused before anything is
    # allocated, so these sizes fail fast.
    @pytest.mark.parametrize("mode", [[], ["--components"]], ids=["solutions", "components"])
    @pytest.mark.parametrize(
        "system",
        [{"kind": "graph", "edges": []}, {"kind": "explicit", "components": [[1]]}],
        ids=["graph", "explicit"],
    )
    def test_too_many_elements_exits_2(self, tmp_path, mode, system):
        for count in (2**62, 2**64):
            doc = {"elements": count, "items": 2, "system": system}
            if not mode:
                doc["sigma"] = []
            path = write_doc(tmp_path, doc)
            code, out, err = invoke(["--input", path, *mode])
            assert (code, out, err) == (2, "", f"error: {path}: instance too large to build\n")

    def test_sigma_row_count_is_checked_before_the_oracle_is_built(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_build_oracle", None)  # calling it fails the test
        path = write_doc(tmp_path, {**P3_DOC, "elements": 10**7, "sigma": []})
        assert invoke(["--input", path]) == (2, "", "error: sigma must have 10000000 rows, got 0\n")

    @pytest.mark.parametrize(
        "system",
        [P3_DOC["system"], {"kind": "explicit", "components": [[1, 2], [2, 3]]}],
        ids=["graph", "explicit"],
    )
    def test_too_many_items_exits_2(self, tmp_path, system):
        for count in (2**62, 2**64):
            path = write_doc(tmp_path, {**P3_DOC, "items": count, "system": system})
            code, out, err = invoke(["--input", path])
            assert (code, out, err) == (2, "", f"error: {path}: instance too large to build\n")
            # --components reads no item count
            code, out, _ = invoke(["--input", path, "--components"])
            assert code == 0 and out

    @pytest.mark.parametrize(
        "system, sigma, line",
        [
            (
                {"kind": "graph", "edges": [[1, 2], [2, 1]]},
                None,
                "error: system.edges[1]: duplicate edge (2, 1)\n",
            ),
            (
                {"kind": "explicit", "components": [[1], [2, 3, 2]]},
                None,
                "error: system.components[1]: repeated element\n",
            ),
            (None, [[1], [1, 1], [2]], "error: sigma[1]: repeated item 1\n"),
            (
                {"kind": "graph", "edges": [[1, 2, 3]]},
                None,
                "error: system.edges[0]: expected two endpoints, got 3\n",
            ),
            (
                {"kind": "graph", "edges": [[1, 2], [0, 2]]},
                None,
                "error: system.edges[1]: edge (0, 2) outside [1, 3]\n",
            ),
            (
                {"kind": "explicit", "components": [[1], [5, 2]]},
                None,
                "error: system.components[1]: id 5 outside [1, 3]\n",
            ),
            (None, [[1], [1, 3], [2]], "error: sigma[1]: item 3 outside [1, 2]\n"),
            (None, [[1], [1, 2]], "error: sigma must have 3 rows, got 2\n"),
        ],
    )
    def test_constructor_errors_name_document_fields(self, tmp_path, system, sigma, line):
        doc = json.loads(json.dumps(P3_DOC))
        doc["system"] = system or doc["system"]
        doc["sigma"] = sigma or doc["sigma"]
        code, out, err = invoke(["--input", write_doc(tmp_path, doc)])
        assert (code, out, err) == (2, "", line)
        if system:
            # --components builds the same oracle, so the same line
            del doc["sigma"]
            code, out, err = invoke(["--input", write_doc(tmp_path, doc), "--components"])
            assert (code, out, err) == (2, "", line)

    @pytest.mark.parametrize(
        "doc, args, line",
        [
            ([P3_DOC], [], "error: {path}: top level must be an object\n"),
            ({**P3_DOC, "system": [[1, 2]]}, [], "error: system: expected an object\n"),
            ({**P3_DOC, "system": {"kind": "graph", "edges": {"1": 2}}}, [],
             "error: system.edges: expected a list of [u, v] pairs\n"),
            ({**P3_DOC, "system": {"kind": "explicit", "components": "1 2"}}, [],
             "error: system.components: expected a list of element-id lists\n"),
            ({**P3_DOC, "sigma": {"1": [1]}}, [],
             "error: sigma: expected a list of item-id lists\n"),
            ({**P3_DOC, "sigma": [[1], 2, [2]]}, [],
             "error: sigma[1]: expected a list of integers\n"),
            ({**P3_DOC, "sigma": [[True], [1, 2], [2]]}, [],
             "error: sigma[0]: expected integers, got True\n"),
            ({**P3_DOC, "system": {"kind": "graph", "edges": [[1, 2.5]]}}, [],
             "error: system.edges[0]: expected integers, got 2.5\n"),
            (P3_DOC, ["--min-size", "-1"], "error: --min-size must be non-negative\n"),
            # a kind that is not a string is refused like any other
            *[
                ({**P3_DOC, "system": {"kind": kind}}, mode,
                 f"error: system.kind: expected 'graph' or 'explicit', got {kind!r}\n")
                for kind in (["graph"], {"graph": 1}, None, 1)
                for mode in ([], ["--components"])
            ],
        ],
        ids=["top-level", "system", "edges", "components", "sigma", "sigma-row", "true",
             "float", "min-size",
             *(f"kind-{kind}{mode}" for kind in ("list", "dict", "null", "int")
               for mode in ("", "-components"))],
    )
    def test_input_shape_errors_exit_2(self, tmp_path, doc, args, line):
        path = write_doc(tmp_path, doc)
        code, out, err = invoke(["--input", path, *args])
        assert (code, out, err) == (2, "", line.replace("{path}", path))

    def test_verify_reports_sets_never_emitted(self, tmp_path, monkeypatch):
        real = testkit.brute_force_solutions

        def one_more(inst):
            # {1, 3} is not connected in the path, so nothing emits it
            return real(inst) + [polyenum.make_solution(inst, IdSet(3, [1, 3]))]

        monkeypatch.setattr(testkit, "brute_force_solutions", one_more)
        code, out, err = invoke(["--input", write_doc(tmp_path, P3_DOC), "--verify"])
        assert (code, out) == (1, P3_GOLDEN)
        assert err == "verify: MISMATCH: 1 expected solutions never emitted\n"

    def test_verify_reports_duplicate_records(self):
        want = {IdSet(3, [2]), IdSet(3, [1, 2])}
        err = io.StringIO()
        assert not _verify(want, [IdSet(3, [2]), IdSet(3, [1, 2]), IdSet(3, [2])], err)
        assert err.getvalue() == "verify: MISMATCH: duplicate records in the output\n"

    @pytest.mark.parametrize("mode", [[], ["--components"]], ids=["solutions", "components"])
    def test_empty_explicit_family_verifies(self, tmp_path, mode):
        doc = {**P3_DOC, "system": {"kind": "explicit", "components": []}}
        if mode:
            del doc["sigma"]
        code, out, err = invoke(["--input", write_doc(tmp_path, doc), "--verify", *mode])
        assert (code, out, err) == (0, "", "verify: ok (0 records)\n")

    @pytest.mark.parametrize("mode", [[], ["--components"]], ids=["solutions", "components"])
    def test_verify_refuses_before_any_output(self, tmp_path, mode):
        # a 13-vertex path is past the brute-force limit of 12 vertices
        doc = {"elements": 13, "items": 1, "sigma": [[1]] * 13,
               "system": {"kind": "graph", "edges": [[v, v + 1] for v in range(1, 13)]}}
        code, out, err = invoke(["--input", write_doc(tmp_path, doc), "--verify", *mode])
        line = "error: graph too large to materialize: 13 > 12 vertices\n"
        if mode:
            line = "warning: sigma in the input is ignored in --components mode\n" + line
        assert (code, out, err) == (2, "", line)

    @pytest.mark.parametrize(
        "args, code",
        [(["p3.json", "--verify"], 0), (["cycle12.json", "--components", "--k", "13"], 2)],
    )
    def test_main_exits_with_the_run_code(self, monkeypatch, capsys, args, code):
        # main is the installed polyenum script: it reads sys.argv, prints
        # what run prints and exits with the code run returns.
        argv = ["--input", str(DOCS / args[0]), *args[1:]]
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out, err) == code
        monkeypatch.setattr(sys, "argv", ["polyenum", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        assert capsys.readouterr() == (out.getvalue(), err.getvalue())

    def test_unknown_flag_exits_2(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        assert run(["--input", path, "--frobnicate"], stdout=io.StringIO()) == 2

    def test_missing_input_flag_exits_2(self):
        assert run([], stdout=io.StringIO()) == 2

    def test_records_are_flushed_as_produced(self, tmp_path):
        class CountingIO(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        path = write_doc(tmp_path, P3_DOC)
        out = CountingIO()
        assert run(["--input", path], stdout=out, stderr=io.StringIO()) == 0
        assert out.flushes >= len(out.getvalue().splitlines())


def seeded_records(seed):
    """Records over n = 1, 45, 300 and 10,050 ids: empty, sparse, dense and full masks."""
    rng = random.Random(seed)
    for n in (1, 45, 300, 10_050):
        full = (1 << (n + 1)) - 2
        picks = [0, full, 1 << n, 2, full & rng.getrandbits(n + 1),
                 full & rng.getrandbits(n + 1) & rng.getrandbits(n + 1) & rng.getrandbits(n + 1)]
        for em in picks[1:]:
            for im in picks:
                items = IdSet._from_mask(n, im)
                yield Solution(IdSet._from_mask(n, em), items, items.min_id())


class TestRecords:
    @pytest.mark.parametrize("seed", range(3))
    def test_json_record_is_json_dumps(self, seed):
        for s in seeded_records(seed):
            want = json.dumps({"elements": list(s.elements), "items": list(s.items), "k": s.k})
            assert cli._json_record(s) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_text_record_lists_the_ids(self, seed):
        for s in seeded_records(seed):
            items = " ".join(str(i) for i in s.items) or "-"
            assert cli._text_record(s) == " ".join(str(v) for v in s.elements) + "\t" + items

    def test_ids_past_the_small_table_are_walked(self):
        # Ids from len(_SMALL_IDS) on are found in the bin() string.
        top = len(cli._SMALL_IDS)
        em = 1 << 1 | 1 << (top - 1) | 1 << top | 1 << 9_999 | 1 << 10_001
        s = Solution(IdSet._from_mask(10_001, em), IdSet._from_mask(10_001, 0), 0)
        assert cli._json_record(s) == json.dumps(
            {"elements": [1, top - 1, top, 9_999, 10_001], "items": [], "k": 0})


class RaisingIO(io.StringIO):
    """A stdout whose writes fail with ``exc`` once ``budget`` writes went through."""

    def __init__(self, exc, budget=0):
        super().__init__()
        self.exc = exc
        self.budget = budget

    def write(self, text):
        if self.budget <= 0:
            raise self.exc
        self.budget -= 1
        return super().write(text)


class TestInterruptedOutput:
    def test_broken_pipe_exits_141_quietly(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        out, err = RaisingIO(BrokenPipeError(32, "Broken pipe"), budget=2), io.StringIO()
        assert run(["--input", path], stdout=out, stderr=err) == 141
        assert out.getvalue() == "1 2 3\t-\n"
        assert err.getvalue() == ""

    def test_keyboard_interrupt_exits_130(self, tmp_path):
        path = write_doc(tmp_path, P3_DOC)
        out, err = RaisingIO(KeyboardInterrupt()), io.StringIO()
        assert run(["--input", path], stdout=out, stderr=err) == 130
        assert err.getvalue() == ""

    def test_reader_closing_the_pipe(self, tmp_path):
        # The 30-cycle's 871 component records fill far more than a pipe
        # buffer, so the CLI is still writing when the reader goes away.
        n = 30
        doc = {"elements": n, "system": {"kind": "graph",
                                         "edges": [[v, v % n + 1] for v in range(1, n + 1)]}}
        proc = subprocess.Popen(
            [sys.executable, "-m", "polyenum.cli", "--input", write_doc(tmp_path, doc),
             "--components", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        try:
            first = json.loads(proc.stdout.readline())
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert first["elements"] == list(range(1, n + 1))
        assert proc.returncode == 141
        assert err == b""


def test_cli_start_skips_dataclasses_and_testkit():
    # Every CLI start pays for what importing polyenum.cli loads: dataclasses
    # pulls in inspect and ast, and testkit is needed only under --verify.
    code = (
        "import sys; before = set(sys.modules); import polyenum.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60, check=True)
    loaded = proc.stdout.split()
    assert "polyenum.cli" in loaded
    assert "dataclasses" not in loaded
    assert "polyenum.testkit" not in loaded


def path_doc(n, **fields):
    return {"elements": n, **fields,
            "system": {"kind": "graph", "edges": [[v, v + 1] for v in range(1, n)]}}


def cycle_doc(n):
    return {"elements": n,
            "system": {"kind": "graph", "edges": [[v, v % n + 1] for v in range(1, n + 1)]}}


TOO_LARGE = "error: /dev/stdin: instance too large to build"


def end_to_end(name, doc, flags, code, records, line=None, limit=60):
    """One CLI run: a file under docs/ or a document piped to stdin, its
    flags, exit code, stdout record count, a line stderr must hold (None
    for an empty stderr) and a time limit in seconds."""
    return pytest.param(doc, flags, code, records, line, limit, id=name)


END_TO_END = [
    end_to_end("p3", "p3.json", ["--verify"], 0, 4, "verify: ok (4 records)"),
    end_to_end("p3-components", "p3.json", ["--components", "--verify"], 0, 6,
               "verify: ok (6 records)"),
    end_to_end("p3-k1", "p3.json", ["--k", "1", "--verify"], 0, 2, "verify: ok (2 records)"),
    end_to_end("p3-components-k1", "p3.json", ["--components", "--k", "1", "--verify"], 0, 3,
               "verify: ok (3 records)"),
    end_to_end("p3-min-size1", "p3.json", ["--min-size", "1", "--verify"], 0, 3,
               "verify: ok (3 records)"),
    end_to_end("p3-components-min-size1", "p3.json",
               ["--components", "--min-size", "1", "--verify"], 0, 3, "verify: ok (3 records)"),
    # an element count too large to build is an input error
    end_to_end("elements-2^62", {"elements": 2**62, "items": 1, "sigma": [],
                                  "system": {"kind": "graph", "edges": []}},
               [], 2, 0, TOO_LARGE),
    # one size rule for both counts in both modes, past 2**63 too
    end_to_end("elements-2^64-components",
               {"elements": 2**64, "system": {"kind": "graph", "edges": []}},
               ["--components"], 2, 0, TOO_LARGE),
    end_to_end("items-2^64", {**P3_DOC, "items": 2**64}, [], 2, 0, TOO_LARGE),
    # items no element carries cost no time
    end_to_end("items-10^7", {**P3_DOC, "items": 10**7}, [], 0, 4, limit=20),
    # groups that cannot emit are never asked: 2,000 isolated vertices take
    # 3 l2 queries, not 2,001
    end_to_end("isolated2000-components",
               {"elements": 2000, "system": {"kind": "graph", "edges": []}},
               ["--components"], 0, 2000, limit=10),
    # the explicit backend walks only the elements some member holds
    end_to_end("explicit-one-member-over-10^5-components",
               {"elements": 10**5, "system": {"kind": "explicit", "components": [[1]]}},
               ["--components"], 0, 1, limit=10),
    # the graph backend's closed-form child scan: n(n - 1) + 1 records
    end_to_end("cycle40-components", cycle_doc(40), ["--components"], 0, 1561, limit=20),
    # the scan's work per record grows with n: n(n + 1)/2 records
    end_to_end("path120-components", path_doc(120), ["--components"], 0, 7260, limit=10),
    # a path whose elements all carry items 1-3 asks groups 0 and 1 only
    end_to_end("path3-items1-3", path_doc(3, items=3, sigma=[[1, 2, 3]] * 3),
               ["--stats", "--verify"], 0, 1, "l2_calls=2"),
    # the one record's walk grows faster than n (ROADMAP item 4); the limit
    # catches it growing further
    end_to_end("path10^4-item1", path_doc(10**4, items=1, sigma=[[1]] * 10**4),
               ["--stats"], 0, 1, "l2_calls=2", limit=10),
    end_to_end("bowtie-components", "bowtie.json", ["--components", "--verify"], 0, 58,
               "verify: ok (58 records)"),
    end_to_end("cycle12-components", "cycle12.json", ["--components", "--verify"], 0, 133,
               "verify: ok (133 records)"),
    # a 2x6 ladder: a cut-vertex sweep that does not carry each subtree's
    # rows up to its parent misses records here
    end_to_end("ladder12-components", "ladder12.json", ["--components", "--verify"], 0, 681,
               "verify: ok (681 records)"),
    end_to_end("p3_explicit", "p3_explicit.json", ["--verify"], 0, 4, "verify: ok (4 records)"),
    end_to_end("p3_explicit-components", "p3_explicit.json", ["--components", "--verify"], 0, 4,
               "verify: ok (4 records)"),
    # a group id past n is an input error that enumerates nothing
    end_to_end("cycle12-components-k13", "cycle12.json", ["--components", "--k", "13"], 2, 0,
               "error: --k 13 outside [0, 12]"),
]


@pytest.mark.parametrize("doc, flags, code, records, line, limit", END_TO_END)
def test_cli_end_to_end(doc, flags, code, records, line, limit):
    # In a child process in dev mode with warnings as errors, at sizes the
    # in-process tests do not reach; the limit fails a run that slows down.
    if isinstance(doc, str):
        source, stdin = str(DOCS / doc), None
    else:
        source, stdin = "/dev/stdin", json.dumps(doc)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "polyenum.cli", "--input", source,
         *flags],
        input=stdin, capture_output=True, text=True, env=src_env(), timeout=limit,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stdout.splitlines()) == records
    if line is None:
        assert proc.stderr == ""
    else:
        assert line in proc.stderr.splitlines()
