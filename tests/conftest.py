import gc
import random

import pytest

from tricliq import Graph, load_fixture


def gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n,p): include each pair independently with probability p."""
    rng = random.Random(seed)
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, pairs)


def planted_sparse(n: int, degree: int, sizes: list[int], seed: int) -> Graph:
    """Seeded sparse graph: disjoint cliques of ``sizes`` on random vertices,
    then uniform random pairs until there are n * degree / 2 edges."""
    rng = random.Random(seed)
    chosen = rng.sample(range(1, n + 1), sum(sizes))
    edges = set()
    for k in sizes:
        clique, chosen = sorted(chosen[:k]), chosen[k:]
        edges.update((u, v) for i, u in enumerate(clique) for v in clique[i + 1:])
    while len(edges) < n * degree // 2:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


def corpus_graph(i: int) -> Graph:
    """Graph ``i`` of the acceptance corpus: n in 5..24, p in {0.3, 0.5, 0.7}."""
    return gnp(5 + i % 20, (0.3, 0.5, 0.7)[i % 3], seed=i)


def cyclic_garbage(call) -> int:
    """The objects that ``call()`` leaves for the cyclic collector alone.

    The collector is paused and emptied first, so what the second
    ``gc.collect()`` finds is the garbage in reference cycles that the call
    made; reference counting has already freed everything else.  The
    collector's state is restored after.  ``call`` must not let an exception
    escape: a traceback held here would hold the call's frames.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


# one corpus graph in each block of 20, offset so that the slice takes every
# n in 5..24 (graphs 0, 20, 40, ... all have n = 5) and every p
CORPUS_SLICE = [20 * j + j % 20 for j in range(50)]


@pytest.fixture(scope="session")
def g1():
    return load_fixture("g1")


@pytest.fixture(scope="session")
def g2():
    return load_fixture("g2")


@pytest.fixture(scope="session")
def g3():
    return load_fixture("g3")


@pytest.fixture(scope="session")
def g4():
    return load_fixture("g4")


@pytest.fixture(scope="session")
def turan13():
    return load_fixture("turan13")


@pytest.fixture(scope="session")
def moon_moser_12():
    return load_fixture("moon_moser_12")
