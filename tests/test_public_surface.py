"""The package's public names: a change to the surface edits this list."""

import inspect
import re
from pathlib import Path

import polyenum

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "ContractError",
    "EmitSink",
    "ExplicitFamilyOracle",
    "GraphConnectivityOracle",
    "IdSet",
    "Instance",
    "OracleStats",
    "ReducedInstance",
    "SetSystemOracle",
    "SizeAbove",
    "Solution",
    "VolumeFunction",
    "children",
    "descendants",
    "enumerate_all",
    "enumerate_components",
    "enumerate_k",
    "is_solution",
    "make_solution",
    "parent",
    "subset_lex_leq",
    "subset_lex_less",
]

# Parameter names of every public function: a new or renamed knob edits this.
SIGNATURES = {
    "children": ["inst", "t", "stats"],
    "descendants": ["inst", "t", "rho", "sink", "stats"],
    "enumerate_all": ["inst", "rho", "sink", "stats"],
    "enumerate_components": ["oracle", "n", "rho", "sink", "stats"],
    "enumerate_k": ["inst", "k", "rho", "sink", "stats"],
    "is_solution": ["inst", "component", "stats"],
    "make_solution": ["inst", "elements"],
    "parent": ["inst", "s", "stats"],
    "subset_lex_leq": ["a", "b"],
    "subset_lex_less": ["a", "b"],
}


def test_all_is_pinned():
    assert sorted(polyenum.__all__) == PUBLIC


def test_public_signatures_are_pinned():
    got = {}
    for name in polyenum.__all__:
        obj = getattr(polyenum, name)
        if inspect.isfunction(obj):
            got[name] = list(inspect.signature(obj).parameters)
    assert got == SIGNATURES


def test_every_public_name_resolves():
    for name in polyenum.__all__:
        assert getattr(polyenum, name) is not None, name


def test_every_public_name_is_documented():
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    for name in polyenum.__all__:
        pattern = re.compile(rf"\b{name}\b")
        assert any(pattern.search(span) for span in spans), f"{name} not in README.md"
