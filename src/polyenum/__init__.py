"""Polynomial-delay enumeration of solutions in oracle-backed set systems.

A set system is a family of non-empty "components" over elements
``[1, n]``, reached only through two maximality oracles.  Adding a map
from elements to attribute items, a component is a *solution* when its
common item set is inclusion-maximal among all strictly larger components.
This package enumerates all solutions (or, via a reduction, all
components) with delay polynomial in the instance size and oracle cost,
optionally pruned by a monotone volume function.
"""

from .components import ReducedInstance, enumerate_components
from .core import (
    ContractError,
    IdSet,
    Instance,
    OracleStats,
    SetSystemOracle,
    SizeAbove,
    VolumeFunction,
    subset_lex_leq,
    subset_lex_less,
)
from .enumerator import (
    EmitSink,
    Solution,
    children,
    descendants,
    enumerate_all,
    enumerate_k,
    is_solution,
    make_solution,
    parent,
)
from .oracles import ExplicitFamilyOracle, GraphConnectivityOracle

__version__ = "0.1.0"

__all__ = [
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
