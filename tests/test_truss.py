"""The pruning trace is a truss decomposition, held to an independent one.

``tests/truss_reference.py`` peels one edge at a time by support, as Cohen
(2008) defines trusses, and shares no code with ``pruning.py``, which
removes every triangle on the minimum-weight edges at once.  On every graph
the two agree: the largest truss number k_max is max MIN + 2, each edge's
truss number is 2 plus the largest MIN up to the iteration that removes the
edge's last triangle (2 for an edge on none), the exhaustive main
iteration's first candidate subgraph H lies inside the k_max-truss, and
k_max bounds the clique number.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tricliq import FIXTURE_NAMES, Graph, full_trace, load_fixture, max_clique_exact
from tricliq.pruning import MODE_EARLY_STOP, MODE_EXHAUSTIVE

from conftest import CORPUS_SLICE, corpus_graph
from trace_reference import trace_truss_numbers
from truss_reference import truss_numbers


def assert_trace_is_truss_decomposition(g: Graph) -> None:
    truss = truss_numbers(g)
    k_max = max(truss.values(), default=2)
    for mode in (MODE_EXHAUSTIVE, MODE_EARLY_STOP):
        trace = full_trace(g, mode=mode)
        assert max((r.min_weight for r in trace.records), default=0) + 2 == k_max
        assert trace_truss_numbers(g, trace) == truss
    trace = full_trace(g, mode=MODE_EXHAUSTIVE)
    if trace.records:
        record = trace.main_iteration()
        top = {v for e, k in truss.items() if k == k_max for v in g.edges[e - 1]}
        assert record.vertices_on(record.min_edges[0]) <= top
    assert max_clique_exact(g).omega <= k_max


@pytest.mark.parametrize("i", CORPUS_SLICE)
def test_trace_is_a_truss_decomposition_on_the_corpus(i):
    assert_trace_is_truss_decomposition(corpus_graph(i))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_trace_is_a_truss_decomposition_on_the_fixtures(name):
    assert_trace_is_truss_decomposition(load_fixture(name).graph)


@st.composite
def planted_graphs(draw):
    """A random graph on up to 14 vertices with, half the time, a clique on
    some of its vertices planted in it."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    planted = draw(st.sets(st.integers(1, n)))
    return Graph(n, [(u, v) for (u, v), k in zip(pairs, keep)
                     if k or (u in planted and v in planted)])


@settings(max_examples=150, deadline=None)
@given(planted_graphs())
def test_trace_is_a_truss_decomposition_on_random_graphs(g):
    assert_trace_is_truss_decomposition(g)


def test_reference_truss_numbers_of_small_graphs():
    # K_4 is a 4-truss; a pendant edge and a lone triangle's edges are not
    # in it
    g = Graph(7, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                  (4, 5), (5, 6), (4, 6), (6, 7)])
    assert truss_numbers(g) == {1: 4, 2: 4, 3: 4, 4: 4, 5: 4, 6: 4,
                                7: 3, 8: 3, 9: 3, 10: 2}
    assert_trace_is_truss_decomposition(g)
