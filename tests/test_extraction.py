from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tricliq import (
    Graph,
    GraphError,
    NoTrianglesThroughEdgeError,
    cliques_per_min_edge,
    complete,
    enumerate_triangles,
    extract_max_clique,
    full_trace,
    is_clique,
    max_clique_exact,
    moon_moser,
    subgraph_for_edge,
)

from conftest import gnp


class TestSubgraphForEdge:
    def test_g1_main_iteration_edge_4(self, g1):
        g = g1.graph
        trace = full_trace(g)
        c2 = trace.main_iteration().surviving
        h, inside = subgraph_for_edge(g, c2, 4)
        assert sorted(h) == [1, 2, 3, 4, 5]
        assert len(inside) == 10
        assert is_clique(g, h)

    def test_g2_edge_1(self, g2):
        tris = enumerate_triangles(g2.graph)
        h, inside = subgraph_for_edge(g2.graph, [t.id for t in tris], 1)
        assert sorted(h) == [1, 2, 3, 6, 7]

    def test_turan13_edge_1(self, turan13):
        # the walkthrough's demonstration edge; its subgraph spans two whole
        # parts and is not complete
        g = turan13.graph
        tris = enumerate_triangles(g)
        h, _ = subgraph_for_edge(g, [t.id for t in tris], 1)
        assert sorted(h) == turan13.expected["e1_subgraph"]
        assert not is_clique(g, h)

    def test_zero_weight_edge_rejected(self, g3):
        # edge 37 = (10,12) lies on no triangle
        g = g3.graph
        assert g.endpoints(37) == (10, 12)
        tris = enumerate_triangles(g)
        with pytest.raises(NoTrianglesThroughEdgeError):
            subgraph_for_edge(g, [t.id for t in tris], 37)


class TestExtraction:
    def test_g3_returns_published_clique(self, g3):
        result = extract_max_clique(g3.graph)
        assert sorted(result.vertices) == [1, 2, 3, 8, 11]
        assert result.size == 5
        assert result.is_verified_clique
        assert not result.degenerate and not result.fallback_used

    def test_g1_default_seed(self, g1):
        result = extract_max_clique(g1.graph)
        assert sorted(result.vertices) in g1.expected["max_cliques"]

    def test_g1_seeded_at_edge_4(self, g1):
        result = extract_max_clique(g1.graph, seed_edge=4)
        assert sorted(result.vertices) == [1, 2, 3, 4, 5]
        assert len(result.witness_triangles) == 10
        assert result.seed_edges == (4,)

    def test_seed_must_attain_minimum(self, g2):
        # g2's main iteration has MIN=3 < MAX=5; edge 2 carries weight 5 and
        # edge 5 weight 4, so neither is a legal seed
        for bad_seed in (2, 5):
            with pytest.raises(GraphError):
                extract_max_clique(g2.graph, seed_edge=bad_seed)

    def test_moon_moser_4(self):
        result = extract_max_clique(moon_moser(4))
        assert result.size == 4
        assert result.is_verified_clique

    def test_turan13_recursion(self, turan13):
        result = extract_max_clique(turan13.graph)
        assert result.size == 4
        assert result.recursion_depth == 1
        assert result.is_verified_clique
        assert len(result.seed_edges) == 2

    def test_g4(self, g4):
        result = extract_max_clique(g4.graph)
        assert result.size == 5
        assert sorted(result.vertices) in g4.expected["cliques"]

    def test_complete_graph(self):
        result = extract_max_clique(complete(6))
        assert sorted(result.vertices) == [1, 2, 3, 4, 5, 6]

    def test_degenerate_triangle_free(self):
        result = extract_max_clique(moon_moser(2))
        assert result.size == 2
        assert result.degenerate and result.is_verified_clique
        assert result.witness_triangles == ()

    def test_degenerate_no_edges(self):
        result = extract_max_clique(Graph(3, []))
        assert result.size == 1 and result.degenerate

    def test_deterministic(self, g4):
        a = extract_max_clique(g4.graph)
        b = extract_max_clique(g4.graph)
        assert a == b

    def test_witness_count_is_choose_3(self, g3, g4, turan13):
        for fx in (g3, g4, turan13):
            r = extract_max_clique(fx.graph)
            assert len(r.witness_triangles) == comb(r.size, 3)

    def test_json_schema(self, g3):
        obj = extract_max_clique(g3.graph).to_json_obj()
        assert sorted(obj) == ["degenerate", "depth", "fallback_used",
                               "seed_edges", "size", "verified", "vertices"]


class TestPerEdgeVariants:
    def test_g2_variant_map_matches_cycle_tables(self, g2):
        per_edge = cliques_per_min_edge(g2.graph)
        expected = {int(e): vs for e, vs in g2.expected["variant_subgraphs"].items()}
        assert sorted(per_edge.by_edge) == sorted(expected)
        for e, result in per_edge.by_edge.items():
            assert sorted(result.vertices) == expected[e]
            assert result.is_verified_clique

    def test_g2_distinct_cliques(self, g2):
        per_edge = cliques_per_min_edge(g2.graph)
        assert [sorted(s) for s in per_edge.distinct] == g2.expected["distinct_cliques"]

    def test_g4_distinct_cliques(self, g4):
        per_edge = cliques_per_min_edge(g4.graph)
        assert [sorted(s) for s in per_edge.distinct] == g4.expected["cliques"]

    def test_g4_witnesses_match_published_tables(self, g4):
        per_edge = cliques_per_min_edge(g4.graph)
        published = {tuple(v): ids for v, ids in zip(
            g4.expected["cliques"], g4.expected["clique_triangle_ids"].values())}
        for result in per_edge.by_edge.values():
            assert list(result.witness_triangles) == published[tuple(sorted(result.vertices))]

    def test_complete_4_every_edge_gives_whole_graph(self):
        per_edge = cliques_per_min_edge(complete(4))
        assert sorted(per_edge.by_edge) == [1, 2, 3, 4, 5, 6]
        assert per_edge.distinct == (frozenset({1, 2, 3, 4}),)

    def test_witnesses_match_a_fresh_enumeration(self, g1, g2, g3, g4, turan13):
        graphs = [fx.graph for fx in (g1, g2, g3, g4, turan13)]
        graphs += [gnp(14, 0.5, seed) for seed in range(10)]
        for g in graphs:
            fresh = enumerate_triangles(g)
            results = list(cliques_per_min_edge(g).by_edge.values())
            results.append(extract_max_clique(g))
            for r in results:
                assert r.witness_triangles == tuple(
                    t.id for t in fresh if r.vertices.issuperset(t.vertices))

    def test_triangle_free_graph_yields_nothing(self):
        per_edge = cliques_per_min_edge(moon_moser(2))
        assert per_edge.by_edge == {} and per_edge.distinct == ()


def test_most_deficient_vertex_selection(g2):
    # the recursion guard drops the vertex with the fewest internal edges,
    # breaking ties toward the smallest label
    from tricliq.extraction import _most_deficient_vertex
    g = g2.graph
    assert _most_deficient_vertex(g, frozenset(range(1, 8))) == 2
    assert _most_deficient_vertex(g, frozenset({3, 4, 5, 6, 7})) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 16), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10**6))
def test_soundness_and_size_bound_on_random_graphs(n, p, seed):
    g = gnp(n, p, seed)
    result = extract_max_clique(g)
    assert result.is_verified_clique
    assert is_clique(g, result.vertices)
    assert result.size <= max_clique_exact(g).omega


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.sampled_from([0.4, 0.6]), st.integers(0, 10**6))
def test_per_edge_results_are_all_sound(n, p, seed):
    g = gnp(n, p, seed)
    for result in cliques_per_min_edge(g).by_edge.values():
        assert result.is_verified_clique
        assert is_clique(g, result.vertices)
