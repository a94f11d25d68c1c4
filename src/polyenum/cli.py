"""File-driven front end.

Reads a JSON instance document, streams one record per solution to stdout
in traversal order, and keeps diagnostics, statistics and verification
chatter on stderr.  Exit codes: 0 on success, 1 when a brute-force
cross-check disagrees, 2 for unusable input or flags, 141 when the reader
of stdout goes away (``polyenum ... | head``), 130 on Ctrl-C.  The last
two follow the shell's 128 + signal number convention and print nothing.

Document format (all ids are integers starting at 1)::

    {
      "elements": 3,
      "items": 2,
      "sigma": [[1], [1, 2], [2]],
      "system": {"kind": "graph", "edges": [[1, 2], [2, 3]]}
    }

``system.kind`` is either ``"graph"`` (with ``"edges"``) or ``"explicit"``
(with ``"components"``, a list of element-id lists).  In ``--components``
mode only ``elements`` and ``system`` are read; a ``sigma`` key, if
present, is ignored with a warning.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import compress
from typing import List, Optional, Set, TextIO

from .components import ReducedInstance
from .core import ContractError, IdSet, Instance, OracleStats, SizeAbove
from .enumerator import Solution, enumerate_all, enumerate_k
from .oracles import ExplicitFamilyOracle, GraphConnectivityOracle


class InstanceFormatError(ValueError):
    """An instance document failed validation; message names the field."""


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer past Python's digit limit
        raise InstanceFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InstanceFormatError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    return doc


def _require_count(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InstanceFormatError(f"{key}: expected a positive integer")
    if value > sys.maxsize // 8:  # too large for any per-id table, in any mode
        raise MemoryError
    return value


def _int_lists(raw, field: str, holds: str) -> List[List[int]]:
    """``raw`` if it is a JSON list of integer lists; the constructors check the ids."""
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{field}: expected a list of {holds}")
    for idx, row in enumerate(raw):
        if not isinstance(row, list):
            raise InstanceFormatError(f"{field}[{idx}]: expected a list of integers")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InstanceFormatError(f"{field}[{idx}]: expected integers, got {x!r}")
    return raw


def _construct(field: str, arg: str, build, *args):
    """Call ``build(*args)``, turning a ValueError from its input checks
    into an InstanceFormatError.  A message that names the constructor
    argument ``arg`` names the document field ``field`` instead."""
    try:
        return build(*args)
    except ValueError as exc:
        msg = str(exc)
        if msg.startswith(arg):
            msg = field + msg[len(arg):]
        raise InstanceFormatError(msg) from exc


# system.kind -> the document key of its list, what the list holds, the
# constructor argument that the constructor's messages name, the constructor
_KINDS = {
    "graph": ("edges", "[u, v] pairs", "edges", GraphConnectivityOracle),
    "explicit": ("components", "element-id lists", "family", ExplicitFamilyOracle),
}


def _build_oracle(doc: dict, n: int):
    system = doc.get("system")
    if not isinstance(system, dict):
        raise InstanceFormatError("system: expected an object")
    kind = system.get("kind")
    # only a str is looked up: a list or dict kind is unhashable
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InstanceFormatError(f"system.kind: expected 'graph' or 'explicit', got {kind!r}")
    key, holds, arg, build = _KINDS[kind]
    field = f"system.{key}"
    return _construct(field, arg, build, n, _int_lists(system.get(key), field, holds))


def _build_instance(doc: dict, components: bool) -> Instance:
    """The instance ``doc`` describes; with ``components``, its reduced one."""
    n = _require_count(doc, "elements")
    if components:
        return ReducedInstance(n, _build_oracle(doc, n))
    q = _require_count(doc, "items")
    raw_sigma = doc.get("sigma")
    if isinstance(raw_sigma, list) and len(raw_sigma) != n:
        # Checked before the oracle, whose tables take memory in n, is built.
        raise InstanceFormatError(f"sigma must have {n} rows, got {len(raw_sigma)}")
    sigma = _int_lists(raw_sigma, "sigma", "item-id lists")
    return _construct("sigma", "sigma", Instance, n, q, sigma, _build_oracle(doc, n))


def parse_instance(path: str) -> Instance:
    """Parse and validate a full instance document."""
    return _build_instance(_load_document(path), False)


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polyenum",
        description="Enumerate solutions (components with inclusion-maximal "
        "common item sets) or all components of a set system instance.",
    )
    p.add_argument("--input", required=True, help="instance document (JSON)")
    p.add_argument(
        "--k",
        type=int,
        default=None,
        help="only the group with this minimum common item (default: all groups)",
    )
    p.add_argument(
        "--min-size",
        type=int,
        default=0,
        metavar="P",
        help="keep only solutions with more than P elements (default 0)",
    )
    p.add_argument(
        "--components",
        action="store_true",
        help="enumerate every component of the system instead of solutions; "
        "sigma in the input is ignored",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the output against brute force (small instances only); "
        "exits 1 on mismatch",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print oracle and traversal counters to stderr",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    return p


# The decimal string of each id below 1024, and bytes.translate's table
# from the characters of a bin() string to selector bytes 0 and 1.
_SMALL_IDS = tuple(map(str, range(1 << 10)))
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _id_strings(mask: int) -> List[str]:
    """The members of ``mask`` as decimal strings, ascending.

    One ``bin()`` string, reversed so that character ``i`` stands for bit
    ``i``, selects the small ids from ``_SMALL_IDS``; ``str.find`` walks
    it for the larger ones, so the time is linear in the largest id.
    """
    bits = bin(mask)[:1:-1]
    out = list(compress(_SMALL_IDS, bits.encode().translate(_BITS)))
    i = bits.find("1", len(_SMALL_IDS))
    while i >= 0:
        out.append(str(i))
        i = bits.find("1", i + 1)
    return out


def _text_record(s: Solution) -> str:
    elems = " ".join(_id_strings(s.elements._mask))
    items = " ".join(_id_strings(s.items._mask)) or "-"
    return f"{elems}\t{items}"


def _json_record(s: Solution) -> str:
    """``json.dumps`` of the record's elements, items and group id, byte for byte."""
    elems = ", ".join(_id_strings(s.elements._mask))
    items = ", ".join(_id_strings(s.items._mask))
    return f'{{"elements": [{elems}], "items": [{items}], "k": {s.k}}}'


def _expected(inst: Instance, args) -> Set[IdSet]:
    """The element sets ``--verify`` expects, from the definition.

    Raises :class:`ContractError` for an instance too large to check.
    """
    # testkit (and the random module) load only for --verify, not at
    # every start of the CLI.
    from . import testkit

    if args.components:
        expected_sets = testkit.materialize_components(inst.oracle, inst.n)
    else:
        expected_sets = [s.elements for s in testkit.brute_force_solutions(inst)]
    rho = SizeAbove(args.min_size)
    return {
        c
        for c in expected_sets
        if rho.positive(c)
        and (args.k is None or inst.common_item_set(c).min_id() == args.k)
    }


def _verify(expected: Set[IdSet], got: List[IdSet], err: TextIO) -> bool:
    ok = True
    if len(got) != len(set(got)):
        print("verify: MISMATCH: duplicate records in the output", file=err)
        ok = False
    missing = expected - set(got)
    unexpected = set(got) - expected
    if missing:
        print(f"verify: MISMATCH: {len(missing)} expected solutions never emitted", file=err)
        ok = False
    if unexpected:
        print(f"verify: MISMATCH: {len(unexpected)} emitted sets are not expected", file=err)
        ok = False
    if ok:
        print(f"verify: ok ({len(got)} records)", file=err)
    return ok


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE
EXIT_INTERRUPTED = 130  # 128 + SIGINT


def _point_at_devnull(stream: TextIO) -> None:
    """Send ``stream``'s descriptor to the null device, if it has one.

    Output still buffered for a closed pipe is flushed again at exit;
    afterwards it lands in the null device instead of raising a second
    time.
    """
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def run(
    argv: Optional[List[str]] = None,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        return _run(argv, out, err)
    except BrokenPipeError:
        _point_at_devnull(out)
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


def _run(argv: Optional[List[str]], out: TextIO, err: TextIO) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        doc = _load_document(args.input)
        inst = _build_instance(doc, args.components)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except MemoryError:
        # a count past _require_count's bound, or an allocation below it
        print(f"error: {args.input}: instance too large to build", file=err)
        return 2
    if args.components and "sigma" in doc:
        print("warning: sigma in the input is ignored in --components mode", file=err)

    if args.k is not None and not 0 <= args.k <= inst.q:
        print(f"error: --k {args.k} outside [0, {inst.q}]", file=err)
        return 2
    if args.min_size < 0:
        print("error: --min-size must be non-negative", file=err)
        return 2

    render = _json_record if args.format == "json" else _text_record
    expected: Set[IdSet] = set()
    got: List[IdSet] = []
    keep = args.verify

    def sink(s: Solution) -> None:
        print(render(s), file=out, flush=True)
        if keep:
            got.append(s.elements)

    stats = OracleStats()
    rho = SizeAbove(args.min_size)
    try:
        # Worked out first, so an instance too large to check is refused
        # before any record is printed.
        if args.verify:
            expected = _expected(inst, args)
        if args.k is None:
            enumerate_all(inst, rho=rho, sink=sink, stats=stats)
        else:
            enumerate_k(inst, args.k, rho=rho, sink=sink, stats=stats)
    except ContractError as exc:
        print(f"error: {exc}", file=err)
        return 2

    if args.stats:
        for name, value in stats.as_dict().items():
            print(f"{name}={value}", file=err)
        print(f"delta_hint={inst.oracle.delta_hint()}", file=err)

    if args.verify and not _verify(expected, got, err):
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
