import pytest

from posetsat import (
    GroundSet,
    SetFamily,
    antichain_poset,
    butterfly_poset,
    chain_poset,
    complete_bipartite_poset,
    n_poset,
    validate_poset,
)
from posetsat.theorems import _butterfly_saturated


@pytest.fixture(autouse=True)
def _no_cached_butterfly_verdict():
    """The butterfly verifiers cache their last saturation verdict; each test
    starts without one, so no result depends on the order tests run in."""
    _butterfly_saturated.cache_clear()


@pytest.fixture(scope="session")
def butterfly():
    return butterfly_poset()


@pytest.fixture(scope="session")
def nposet():
    return n_poset()


@pytest.fixture(scope="session")
def two_chain():
    return chain_poset(2)


@pytest.fixture(scope="session")
def two_antichain():
    return antichain_poset(2)


def family(n, *sets):
    return SetFamily.from_sets(GroundSet(n), sets)


def relabel(q, perm):
    """The poset with element a renamed perm[a]."""
    m = q.size
    less = [[False] * m for _ in range(m)]
    for a, b in q.strict_pairs():
        less[perm[a]][perm[b]] = True
    return validate_poset(less)


CROSS_CHECK_POSETS = {
    "B": butterfly_poset(),
    "N": n_poset(),
    "K23": complete_bipartite_poset(3, 2),
    "K32": complete_bipartite_poset(2, 3),
    "K13": complete_bipartite_poset(3, 1),
    "chain3": chain_poset(3),
    "antichain3": antichain_poset(3),
    "B-r0": relabel(butterfly_poset(), (1, 0, 3, 2)),
    "B-r1": relabel(butterfly_poset(), (2, 3, 0, 1)),
    "B-r2": relabel(butterfly_poset(), (0, 2, 1, 3)),
    "N-r0": relabel(n_poset(), (3, 2, 1, 0)),
    "N-r1": relabel(n_poset(), (1, 0, 3, 2)),
    "N-r2": relabel(n_poset(), (2, 0, 3, 1)),
}
