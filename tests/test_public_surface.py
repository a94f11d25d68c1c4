"""The package's public names: a change to the surface edits this list."""

import polyenum

PUBLIC = [
    "ContractError",
    "ElementSet",
    "EmitSink",
    "ExplicitFamilyOracle",
    "GraphConnectivityOracle",
    "IdSet",
    "Instance",
    "ItemSet",
    "OracleStats",
    "ReducedInstance",
    "SetSystemOracle",
    "SizeAbove",
    "Solution",
    "VolumeFunction",
    "build_reduction",
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


def test_all_is_pinned():
    assert sorted(polyenum.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in polyenum.__all__:
        assert getattr(polyenum, name) is not None, name
