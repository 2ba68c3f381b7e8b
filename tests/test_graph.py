import copy
import pickle
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from tricliq import (
    DuplicateEdgeError,
    EmptyVertexSetError,
    Graph,
    GraphError,
    SelfLoopError,
    VertexRangeError,
    check_nonseparable,
    complete,
    is_clique,
    moon_moser,
)

from conftest import gnp
from extraction_reference import induced_subgraph
from graph_reference import (
    _raise_first_rejected,
    degree,
    neighbors,
    reference_nonseparable,
)

K4_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


class TestConstruction:
    def test_k4(self):
        g = Graph(4, K4_PAIRS)
        assert g.n == 4 and g.m == 6
        assert g.edge_id(2, 3) == 4
        assert g.endpoints(6) == (3, 4)

    def test_trivial(self):
        g = Graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(1, 2), (1, 2)])
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(1, 2), (2, 1)])  # unordered pair, same edge

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexRangeError):
            Graph(3, [(1, 4)])
        with pytest.raises(VertexRangeError):
            Graph(0, [])

    def test_immutable(self):
        g = Graph(3, [(1, 2), (3, 2)])
        for name in ("n", "m", "edges", "_up"):
            with pytest.raises(AttributeError):
                setattr(g, name, 5)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert (g.n, g.m, g.edges) == (3, 2, ((1, 2), (2, 3)))
        assert repr(g) == "Graph(n=3, m=2)"
        assert hash(g) == hash((g.n, g.edges))
        for twin in (copy.copy(g), copy.deepcopy(g),
                     pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g)
            assert [twin.has_edge(u, v) for u in range(4) for v in range(4)] \
                == [g.has_edge(u, v) for u in range(4) for v in range(4)]
            assert (twin.edge_id(1, 2), twin.edge_id(3, 2)) == (1, 2)
            assert twin._neighbour_lists() == g._neighbour_lists()

    def test_adjacency_incidence_consistent(self):
        g = Graph(4, K4_PAIRS)
        for e in range(1, g.m + 1):
            u, v = g.endpoints(e)
            assert g.edge_id(v, u) == e
            assert v in neighbors(g, u) and u in neighbors(g, v)


@st.composite
def pair_lists(draw):
    """``(n, pairs)`` with endpoints in 0..n+1 given in either order:
    self-loops, repeats in both directions and several bad pairs, or, half
    the time, only the pairs the reference accepts; and, half the time, one
    pair inserted anywhere with a label that is no exact int."""
    n = draw(st.integers(1, 6))
    ends = st.integers(0, n + 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    if draw(st.booleans()):
        kept, seen = [], set()
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if 1 <= key[0] and key[1] <= n and u != v and key not in seen:
                seen.add(key)
                kept.append((u, v))
        pairs = kept
    if draw(st.booleans()):
        odd = draw(st.sampled_from([True, False, 1.0, 2.5, None]))
        pair = (odd, draw(ends)) if draw(st.booleans()) else (draw(ends), odd)
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return n, pairs


@settings(max_examples=400, deadline=None)
@given(pair_lists())
def test_construction_matches_first_rejected_reference(case):
    n, pairs = case
    try:
        _raise_first_rejected(n, pairs)
    except GraphError as expected:
        with pytest.raises(GraphError) as err:
            Graph(n, iter(pairs))
        assert type(err.value) is type(expected)
        assert str(err.value) == str(expected)
        assert err.value.position == expected.position
        return
    g = Graph(n, iter(pairs))
    edges = tuple((min(u, v), max(u, v)) for u, v in pairs)
    assert g.m == len(edges) and g.edges == edges
    up = [{} for _ in range(n + 1)]
    adj = [set() for _ in range(n + 1)]
    for j, (u, v) in enumerate(edges, 1):
        up[u][v] = j
        adj[u].add(v)
        adj[v].add(u)
    assert g._up == tuple(up)
    assert [neighbors(g, v) for v in g.vertices()] == list(map(frozenset, adj[1:]))


def test_building_from_a_generator_costs_little_transient_memory():
    # the pairs of the circulant C_12000(1..5), ordered, made one at a time:
    # the graph is built in one pass that keeps no list of the pairs
    n = 12000

    def pairs():
        for d in range(1, 6):
            for u in range(1, n + 1):
                v = (u + d - 1) % n + 1
                yield (u, v) if u < v else (v, u)

    tracemalloc.start()
    try:
        g = Graph(n, pairs())
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 60000 and degree(g, 1) == 10
    assert peak - retained <= 4 << 20


def test_a_built_graph_keeps_its_edge_list_and_one_index():
    # the edge list and the edge index of C_20000 take about 6.2 MiB; a
    # neighbour frozenset per vertex beside them would take 10.5 MiB
    n = 20000
    pairs = [(v, v % n + 1) for v in range(1, n + 1)]
    tracemalloc.start()
    try:
        g = Graph(n, pairs)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == n and neighbors(g, 1) == {2, n}
    assert retained <= 8 << 20


class TestComplement:
    def test_complete_graph(self):
        assert complete(4).complement().m == 0

    def test_moon_moser_3(self):
        comp = moon_moser(3).complement()
        assert comp.n == 9 and comp.m == 9
        triads = [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}]
        for u, v in comp.edges:
            assert any(u in t and v in t for t in triads)

    def test_involution_up_to_reordering(self, g3):
        twice = g3.graph.complement().complement()
        assert twice.n == g3.graph.n
        assert sorted(twice.edges) == sorted(g3.graph.edges)


class TestInducedSubgraph:
    """The relabelling the recursive extraction reference recurses on."""

    def test_g3_clique_vertices(self, g3):
        sub = induced_subgraph(g3.graph, [1, 2, 3, 8, 11])
        assert sub.graph.n == 5 and sub.graph.m == 10

    def test_single_vertex(self, g3):
        sub = induced_subgraph(g3.graph, [7])
        assert sub.graph.n == 1 and sub.graph.m == 0

    def test_g2_clique_vertices(self, g2):
        sub = induced_subgraph(g2.graph, [1, 2, 3, 6, 7])
        assert sub.graph.m == 10

    def test_empty_rejected(self, g3):
        with pytest.raises(EmptyVertexSetError):
            induced_subgraph(g3.graph, [])

    def test_index_maps_round_trip(self, g3):
        vs = [2, 5, 7, 10]
        sub = induced_subgraph(g3.graph, vs)
        for p in vs:
            assert sub.parent_vertex(sub.sub_vertex_of[p]) == p
        for sub_e in range(1, sub.graph.m + 1):
            su, sv = sub.graph.endpoints(sub_e)
            pu, pv = sub.parent_vertex(su), sub.parent_vertex(sv)
            assert g3.graph.edge_id(pu, pv) == sub.parent_edge(sub_e)

    def test_adjacency_preserved(self, g3):
        g = g3.graph
        vs = [1, 3, 5, 7, 9, 11]
        sub = induced_subgraph(g, vs)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                assert g.has_edge(u, v) == sub.graph.has_edge(
                    sub.sub_vertex_of[u], sub.sub_vertex_of[v])


class TestNonseparable:
    def test_k4_passes(self):
        report = check_nonseparable(complete(4))
        assert report.is_nonseparable

    def test_path_fails_everything(self):
        report = check_nonseparable(Graph(3, [(1, 2), (2, 3)]))
        assert report.connected
        assert report.has_bridge
        assert report.has_articulation_point
        assert report.min_degree < 3

    def test_disconnected(self):
        report = check_nonseparable(Graph(4, [(1, 2), (3, 4)]))
        assert not report.connected

    def test_bowtie_has_articulation_point(self):
        bowtie = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
        report = check_nonseparable(bowtie)
        assert report.has_articulation_point and not report.has_bridge

    def test_fixtures_pass(self, g1, g2, g3, g4, turan13):
        for fx in (g1, g2, g3, g4, turan13):
            assert check_nonseparable(fx.graph).is_nonseparable, fx.name


@st.composite
def small_graphs(draw, max_n=9):
    """A simple graph on 1..max_n vertices: a sparse one, with isolated
    vertices, bridges and several components, or one of any density."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    if not pairs:
        return Graph(n, [])
    if draw(st.booleans()):
        chosen = draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
        return Graph(n, sorted(chosen, key=pairs.index))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pq for pq, keep in zip(pairs, present) if keep])


@settings(max_examples=400, deadline=None)
@given(small_graphs())
@example(Graph(1, []))  # one isolated vertex takes the DFS like any other
def test_nonseparability_matches_deletion_reference(g):
    assert check_nonseparable(g) == reference_nonseparable(g)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_pair_queries_match_the_edge_list_on_and_off_the_graph(g, rng):
    # labels from -(n+1) up: a negative label must not index the edge index
    # from its end, where -2 would read vertex n-1's higher neighbours
    edges = list(g.edges)
    rng.shuffle(edges)
    g = Graph(g.n, edges)
    eid = {e: j for j, e in enumerate(edges, 1)}
    labels = range(-g.n - 1, g.n + 3)
    for u in labels:
        for v in labels:
            e = eid.get((min(u, v), max(u, v)))
            assert g.has_edge(u, v) == (e is not None)
            if e is None:
                with pytest.raises(GraphError):
                    g.edge_id(u, v)
            else:
                assert g.edge_id(u, v) == e


class TestLabelsAreExactInts:
    # ``True`` and ``1.0`` equal 1 but name no vertex or edge; before, they
    # were read as 1 or raised TypeError, as ``None`` did
    @pytest.mark.parametrize("query,message", [
        (lambda g: is_clique(g, [1.0, 2]), "vertex 1.0 outside 1..4"),
        (lambda g: is_clique(g, [True, 2]), "vertex True outside 1..4"),
        # a set of the labels would merge True into 1
        (lambda g: is_clique(g, [1, True]), "vertex True outside 1..4"),
        (lambda g: g.endpoints(1.0), "edge id 1.0 outside 1..6"),
        (lambda g: g.endpoints(True), "edge id True outside 1..6"),
        (lambda g: g.edge_id(1.0, 2), "(1.0,2) is not an edge"),
        (lambda g: g.edge_id(True, 2), "(True,2) is not an edge"),
        (lambda g: g.edge_id(None, 2), "(None,2) is not an edge"),
    ], ids=["clique-float", "clique-bool", "clique-bool-beside-1",
            "endpoints-float", "endpoints-bool", "edge-id-float",
            "edge-id-bool", "edge-id-none"])
    def test_queries_reject_them(self, query, message):
        with pytest.raises(GraphError) as err:
            query(Graph(4, K4_PAIRS))
        assert str(err.value) == message

    @pytest.mark.parametrize("u,v", [(None, 2), (True, 2), (1.0, 2), (2, 1.0)])
    def test_has_edge_is_false_for_them(self, u, v):
        assert Graph(4, K4_PAIRS).has_edge(u, v) is False

    @pytest.mark.parametrize("pairs,message", [
        ([(True, 2)], "edge (True,2) outside 1..3"),
        ([(1, 2), (1, 2.5)], "edge (1,2.5) outside 1..3"),
        ([(1, 3), (1.0, 2)], "edge (1.0,2) outside 1..3"),
    ], ids=["bool", "fraction", "float"])
    def test_construction_rejects_them_in_pairs(self, pairs, message):
        # before, (True, 2) built an edge written out as "True 2" and (1, 2.5)
        # an edge (1, 2.5), while (1.0, 2) raised TypeError
        with pytest.raises(VertexRangeError) as err:
            Graph(3, pairs)
        assert str(err.value) == message
        assert err.value.position == len(pairs) - 1

    @pytest.mark.parametrize("pairs,message", [
        ([(1, 2, 3)], "(1, 2, 3) is not a pair of vertex labels"),
        ([(1, 2), 1], "1 is not a pair of vertex labels"),
        ([(1, 2), (3,)], "(3,) is not a pair of vertex labels"),
        ([(1, 3), None], "None is not a pair of vertex labels"),
    ], ids=["three-values", "int", "one-value", "none"])
    def test_construction_rejects_a_pair_that_is_not_two_values(
            self, pairs, message):
        # before, these raised a bare ValueError or TypeError from unpacking,
        # with no position
        with pytest.raises(VertexRangeError) as err:
            Graph(3, iter(pairs))
        assert str(err.value) == message
        assert err.value.position == len(pairs) - 1

    def test_construction_passes_on_what_iterating_the_pairs_raises(self):
        # only a pair that is read can be malformed: an error from the
        # iterable itself, or a non-iterable ``pairs``, is not a GraphError
        def failing():
            yield (1, 2)
            raise ValueError("no more pairs")

        with pytest.raises(ValueError, match="no more pairs") as err:
            Graph(3, failing())
        assert not isinstance(err.value, GraphError)
        with pytest.raises(TypeError):
            Graph(3, 5)

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_construction_rejects_them_as_the_vertex_count(self, n):
        with pytest.raises(VertexRangeError) as err:
            Graph(n, [])
        assert str(err.value) == f"vertex count must be a positive int, got {n!r}"


class TestIsClique:
    def test_g3_published_clique(self, g3):
        assert is_clique(g3.graph, [1, 2, 3, 8, 11])

    def test_single_vertex(self, g3):
        assert is_clique(g3.graph, [4])

    def test_g2_near_clique_with_missing_pair(self, g2):
        # (4,6) is not an edge, so this 5-set is not a clique
        assert not is_clique(g2.graph, [1, 3, 4, 6, 7])

    def test_empty_rejected(self, g3):
        with pytest.raises(EmptyVertexSetError):
            is_clique(g3.graph, [])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.5, 0.8, 0.95]),
       st.integers(0, 10**6), st.data())
def test_is_clique_matches_a_pairwise_test_on_the_edge_list(n, p, seed, data):
    # vertices in any order, repeats allowed; the pair set is built here
    g = gnp(n, p, seed)
    pairs = set(g.edges)
    vertices = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
    expected = all(pq in pairs for pq in combinations(sorted(set(vertices)), 2))
    assert is_clique(g, vertices) is expected


@given(st.integers(2, 12), st.floats(0.1, 0.9), st.integers(0, 10**6))
def test_degree_sum_is_twice_edge_count(n, p, seed):
    g = gnp(n, p, seed)
    assert sum(degree(g, v) for v in g.vertices()) == 2 * g.m


@given(st.integers(2, 10), st.floats(0.2, 0.8), st.integers(0, 10**6))
def test_incidence_and_adjacency_views_agree(n, p, seed):
    g = gnp(n, p, seed)
    for v in g.vertices():
        incident = {e for e, pair in enumerate(g.edges, 1) if v in pair}
        assert incident == {g.edge_id(v, u) for u in neighbors(g, v)}
