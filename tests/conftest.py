from pathlib import Path

import pytest

from polyenum import ExplicitFamilyOracle, GraphConnectivityOracle, IdSet, Instance

P3_SIGMA = [[1], [1, 2], [2]]
P3_JSON = str(Path(__file__).parents[1] / "docs" / "p3.json")  # the p3 fixture's document


@pytest.fixture
def p3():
    """Path 1-2-3 with sigma(1)={1}, sigma(2)={1,2}, sigma(3)={2}."""
    oracle = GraphConnectivityOracle(3, [(1, 2), (2, 3)])
    return Instance(3, 2, P3_SIGMA, oracle)


@pytest.fixture
def p3_explicit():
    """Same attributes as p3 but over the listed family {2},{1,2},{2,3},{1,2,3}."""
    oracle = ExplicitFamilyOracle(3, [[2], [1, 2], [2, 3], [1, 2, 3]])
    return Instance(3, 2, P3_SIGMA, oracle)


def elems(inst, *ids):
    return IdSet(inst.n, ids)


def items(inst, *ids):
    return IdSet(inst.q, ids)
