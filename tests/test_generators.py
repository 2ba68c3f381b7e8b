import pytest

from tricliq import Graph, GraphError, complete, complete_multipartite, moon_moser

from graph_reference import degree


def incident_edges(g, v):
    """Ids of the edges at ``v``, ascending."""
    return tuple(e for e, pair in enumerate(g.edges, 1) if v in pair)


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (4, 6), (5, 10)])
def test_complete_edge_counts(n, m):
    g = complete(n)
    assert g.n == n and g.m == m


@pytest.mark.parametrize("k,m", [(2, 9), (3, 27), (4, 54)])
def test_moon_moser_edge_formula(k, m):
    # m = n(n-3)/2 with n = 3k
    g = moon_moser(k)
    n = 3 * k
    assert g.n == n
    assert g.m == m == n * (n - 3) // 2


def test_moon_moser_no_intra_triad_edges():
    g = moon_moser(3)
    for u, v in g.edges:
        assert (u - 1) // 3 != (v - 1) // 3


def test_moon_moser_equals_all_threes_multipartite():
    for k in (2, 3, 4):
        assert moon_moser(k).edges == complete_multipartite([3] * k).edges
    for n in range(2, 31):
        assert complete(n).edges == complete_multipartite([1] * n).edges == tuple(
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def test_one_part_graphs_have_no_edges():
    assert complete(1) == Graph(1, [])
    assert moon_moser(1) == Graph(3, [])


def test_multipartite_turan_13():
    g = complete_multipartite([3, 3, 3, 4])
    assert g.n == 13 and g.m == 63


def test_multipartite_single_edge():
    g = complete_multipartite([1, 1])
    assert g.n == 2 and g.edges == ((1, 2),)


def test_multipartite_degrees():
    # a vertex in a part of size s has degree n - s
    parts = [2, 3, 4, 1]
    g = complete_multipartite(parts)
    n = sum(parts)
    v = 1
    for s in parts:
        for _ in range(s):
            assert degree(g, v) == n - s
            v += 1


def test_generator_argument_errors():
    with pytest.raises(GraphError):
        complete(0)
    with pytest.raises(GraphError):
        moon_moser(0)
    with pytest.raises(GraphError):
        complete_multipartite([5])
    with pytest.raises(GraphError):
        complete_multipartite([2, 0])



@pytest.mark.parametrize("make", [
    lambda: complete(True), lambda: complete(2.0), lambda: complete("2"),
    lambda: moon_moser(True), lambda: moon_moser(2.0),
    lambda: complete_multipartite([2, True]),
    lambda: complete_multipartite([2, 2.0]),
], ids=["complete-bool", "complete-float", "complete-str", "moon-moser-bool",
        "moon-moser-float", "multipartite-bool", "multipartite-float"])
def test_sizes_are_exact_ints(make):
    # before, True was read as 1 (complete(True) gave K_1) and 2.0 raised
    # TypeError from ``range``
    with pytest.raises(GraphError, match="expected an int size, got "):
        make()


def test_messages_for_sizes_below_one():
    # the CLI prints these, as ``tricliq generate complete 0`` does
    for make, message in [
            (lambda: complete(0), "complete graph needs n >= 1, got 0"),
            (lambda: moon_moser(-1), "moon_moser needs k >= 1, got -1"),
            (lambda: complete_multipartite([2, 0]),
             "every part must have size >= 1")]:
        with pytest.raises(GraphError) as err:
            make()
        assert str(err.value) == message

def test_turan13_matches_published_edge_numbering(turan13):
    # the generator's lexicographic order reproduces the reference incidence
    # tables for this graph, e.g. rows for vertices 5, 10, and 13
    g = complete_multipartite([3, 3, 3, 4])
    assert g == turan13.graph
    assert incident_edges(g, 10) == (7, 17, 27, 34, 41, 48, 52, 56, 60)
    assert incident_edges(g, 13) == (10, 20, 30, 37, 44, 51, 55, 59, 63)
    assert g.edge_id(5, 7) == 38


def test_moon_moser_12_matches_published_edge_numbering(moon_moser_12):
    g = moon_moser(4)
    assert g == moon_moser_12.graph
    assert incident_edges(g, 1) == tuple(range(1, 10))
    assert incident_edges(g, 7) == (4, 13, 22, 28, 34, 40, 46, 47, 48)
    assert g.edge_id(9, 12) == 54
