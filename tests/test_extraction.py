import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import tricliq.extraction as extraction
import tricliq.pruning as pruning
from tricliq import (
    MODE_EARLY_STOP,
    MODE_EXHAUSTIVE,
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
from extraction_reference import (
    most_deficient_vertex,
    reference_extract,
    reference_per_edge,
)

MODES = (MODE_EXHAUSTIVE, MODE_EARLY_STOP)


@pytest.mark.parametrize("run", (full_trace, extract_max_clique,
                                 cliques_per_min_edge))
@pytest.mark.parametrize("g", (complete(5), Graph(3, [(1, 2), (2, 3)])),
                         ids=("K5", "triangle-free"))
def test_unknown_mode_is_rejected_by_every_entry_point(run, g):
    with pytest.raises(GraphError, match="unknown trace mode 'bogus'"):
        run(g, mode="bogus")


class TestSubgraphForEdge:
    def test_g1_main_iteration_edge_4(self, g1):
        g = g1.graph
        trace = full_trace(g)
        c2 = trace.main_iteration().surviving
        h = subgraph_for_edge(g, c2, 4, trace.triangles)
        assert sorted(h) == [1, 2, 3, 4, 5]
        assert sum(h.issuperset(trace.triangle_by_id(c).vertices)
                   for c in c2) == 10
        assert is_clique(g, h)

    def test_g2_edge_1(self, g2):
        tris = enumerate_triangles(g2.graph)
        h = subgraph_for_edge(g2.graph, [t.id for t in tris], 1, tris)
        assert sorted(h) == [1, 2, 3, 6, 7]

    def test_turan13_edge_1(self, turan13):
        # the walkthrough's demonstration edge; its subgraph spans two whole
        # parts and is not complete
        g = turan13.graph
        tris = enumerate_triangles(g)
        h = subgraph_for_edge(g, [t.id for t in tris], 1, tris)
        assert sorted(h) == turan13.expected["e1_subgraph"]
        assert not is_clique(g, h)

    def test_a_subset_of_the_listing_is_rejected(self):
        # triangle c is read at position c - 1, which only the whole listing
        # keeps
        g = complete(4)
        subset = enumerate_triangles(g).take([1, 2])
        with pytest.raises(GraphError, match="whole listing"):
            subgraph_for_edge(g, [2], 1, subset)

    @pytest.mark.parametrize("ids,listing", [
        ([0], complete(4)), ([-1], complete(4)), ([5], complete(4)),
        ([1], Graph(3, [(1, 2), (2, 3)])), ([1.0], complete(4)),
        ([True], complete(4)),
    ], ids=["zero", "negative", "above-T", "empty-store", "float", "bool"])
    def test_ids_outside_the_listing_are_rejected(self, ids, listing):
        # triangle c is read at position c - 1: id 0 read K_4's last
        # triangle and returned {2, 3, 4}, id -1 its third, an id past
        # the end raised IndexError, 1.0 raised TypeError and True read
        # triangle 1
        tris = enumerate_triangles(listing)
        with pytest.raises(GraphError) as err:
            subgraph_for_edge(listing, [1, *ids], 1, tris)
        assert str(err.value) == (
            f"triangle {ids[0]} is not in the listing 1..{len(tris)}")

    @pytest.mark.parametrize("edge", [1.0, True])
    def test_an_edge_that_is_not_an_int_is_rejected(self, edge):
        # 1.0 and True equal edge 1, whose H was returned
        g = complete(4)
        with pytest.raises(GraphError) as err:
            subgraph_for_edge(g, [1], edge, enumerate_triangles(g))
        assert str(err.value) == f"edge id {edge} outside 1..6"

    def test_zero_weight_edge_rejected(self, g3):
        # edge 37 = (10,12) lies on no triangle
        g = g3.graph
        assert g.endpoints(37) == (10, 12)
        tris = enumerate_triangles(g)
        with pytest.raises(NoTrianglesThroughEdgeError):
            subgraph_for_edge(g, [t.id for t in tris], 37, tris)


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
        result = cliques_per_min_edge(g1.graph).by_edge[4]
        assert sorted(result.vertices) == [1, 2, 3, 4, 5]
        assert len(result.witness_triangles) == 10
        assert result.seed_edges == (4,)

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

    def test_degenerate_path(self):
        # no triangles, no main iteration: the result degrades to edge 1
        result = extract_max_clique(Graph(3, [(1, 2), (2, 3)]))
        assert result.degenerate and result.vertices == {1, 2}
        assert result.seed_edges == ()

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
    # the reference's recursion guard drops the vertex with the fewest
    # internal edges, breaking ties toward the smallest label
    g = g2.graph
    assert most_deficient_vertex(g, frozenset(range(1, 8))) == 2
    assert most_deficient_vertex(g, frozenset({3, 4, 5, 6, 7})) == 4


FIELDS = ("vertices", "seed_edges", "recursion_depth", "degenerate",
          "fallback_used", "witness_triangles", "is_verified_clique")


def assert_matches_reference(g: Graph) -> None:
    """The loop and the recursive reference agree on every result field, for
    one extraction and for every minimum edge, in both modes."""
    for mode in MODES:
        got, want = extract_max_clique(g, mode=mode), reference_extract(g, mode)
        for name in FIELDS:
            assert getattr(got, name) == getattr(want, name), (mode, name)
        got = cliques_per_min_edge(g, mode=mode)
        want_by_edge, want_distinct = reference_per_edge(g, mode)
        assert list(got.by_edge) == list(want_by_edge)
        assert got.distinct == want_distinct
        for edge, result in got.by_edge.items():
            for name in FIELDS:
                assert getattr(result, name) == getattr(want_by_edge[edge], name), \
                    (mode, edge, name)


def test_loop_matches_recursive_reference_on_corpus():
    # the acceptance corpus: n = 5..24, p = 0.3/0.5/0.7, seeds 0..999
    for i in range(1000):
        assert_matches_reference(gnp(5 + i % 20, (0.3, 0.5, 0.7)[i % 3], seed=i))


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 14), st.sampled_from([0.4, 0.6, 0.8]), st.integers(0, 10**6))
def test_loop_matches_recursive_reference_on_shuffled_edge_ids(n, p, seed):
    # shuffled edge ids make the deeper levels' seed rule matter
    assert_matches_reference(shuffled(gnp(n, p, seed), random.Random(seed)))


def test_each_call_enumerates_triangles_once(monkeypatch, turan13):
    # turan13's extraction goes one level deep
    calls = []

    def counted(g):
        calls.append(g)
        return enumerate_triangles(g)

    monkeypatch.setattr(pruning, "enumerate_triangles", counted)
    assert extract_max_clique(turan13.graph).recursion_depth == 1
    assert len(calls) == 1
    results = cliques_per_min_edge(turan13.graph).by_edge.values()
    assert max(r.recursion_depth for r in results) >= 1
    assert len(calls) == 2


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """``g`` with its edges in random order and random endpoint order, so
    edge ids are not in lexicographic pair order."""
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(pairs)
    return Graph(g.n, pairs)


def assert_seed_local_reads_match_scans(g, triangles, level, trace):
    """For every record of ``trace`` (the trace of ``level``) and each of its
    minimum edges, H from the per-edge list equals H from a scan of the
    record's survivors, and the slices inside H equal a scan of ``level``."""
    for record in trace.records:
        for edge in record.min_edges:
            h = record.vertices_on(edge)
            assert h == subgraph_for_edge(g, record.surviving, edge, triangles)
            assert tuple(level.inside(h)) == \
                tuple(t for t in level if h.issuperset(t.vertices))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 14), st.sampled_from([0.3, 0.6, 0.8]),
       st.integers(0, 10**6), st.booleans())
def test_seed_local_reads_match_whole_store_scans(n, p, seed, shuffle):
    g = gnp(n, p, seed)
    if shuffle:
        g = shuffled(g, random.Random(seed))
    triangles = enumerate_triangles(g)
    trace = full_trace(g, triangles=triangles)
    assert_seed_local_reads_match_scans(g, triangles, triangles, trace)
    # a deeper level: positions in its trace differ from triangle ids
    for record in trace.records:
        level = triangles.inside(record.vertices_on(record.min_edges[0]))
        sub = full_trace(g, triangles=level)
        assert_seed_local_reads_match_scans(g, triangles, level, sub)


def test_extraction_reads_no_whole_store(monkeypatch, turan13):
    # a read of IterationRecord.surviving, or a subgraph_for_edge call,
    # scans every triangle of the trace: a seed must touch only its own
    reads = []
    surviving = pruning.IterationRecord.surviving

    def counted(self):
        reads.append(self.index)
        return surviving.fget(self)

    def forbidden(*args, **kwargs):
        raise AssertionError("subgraph_for_edge scans every survivor")

    monkeypatch.setattr(pruning.IterationRecord, "surviving", property(counted))
    monkeypatch.setattr(extraction, "subgraph_for_edge", forbidden)
    for g in (turan13.graph, gnp(100, 0.3, 1)):
        assert cliques_per_min_edge(g).by_edge
        assert extract_max_clique(g).is_verified_clique
    assert reads == []
    assert full_trace(turan13.graph).records[0].surviving
    assert reads == [0]


def test_subgraph_that_does_not_shrink_raises(monkeypatch):
    # H = all of K_4; were it reported as not complete, the next level would
    # be the same graph again
    monkeypatch.setattr(extraction, "is_clique", lambda g, vs: False)
    with pytest.raises(RuntimeError, match="invariant"):
        extract_max_clique(complete(4))


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
