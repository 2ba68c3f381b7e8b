import dataclasses
import io
import json
import random
import tracemalloc
from itertools import chain, combinations, count
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from tricliq import (
    EmptyTraceError,
    Graph,
    GraphError,
    MODE_EARLY_STOP,
    MODE_EXHAUSTIVE,
    complete,
    enumerate_triangles,
    extract_max_clique,
    full_trace,
    load_fixture,
    max_clique_exact,
    moon_moser,
    weight_vectors,
)
from tricliq import pruning
from tricliq.extraction import subgraph_for_edge
from tricliq.triangles import TriangleStore

from conftest import CORPUS_SLICE, corpus_graph, gnp
from triangles_reference import reference_edge_weights
from trace_reference import (
    EmptyIterationError,
    assert_matches_reference,
    logged_removals,
    prune_step,
    reference_json_obj,
    reference_trace,
)

MODES = (MODE_EXHAUSTIVE, MODE_EARLY_STOP)


class TestG1Trace:
    """The ten-vertex two-clique example, checked against its printed run."""

    def test_iteration_weight_vectors(self, g1):
        logged = [o["weights"] for o in full_trace(g1.graph).to_json_obj()]
        assert logged == [g1.expected["p0"], g1.expected["p1"],
                          g1.expected["p2"]]

    def test_min_max_sequence(self, g1):
        trace = full_trace(g1.graph)
        assert [(r.min_weight, r.max_weight) for r in trace.records] == [
            (2, 5), (2, 4), (3, 3)]

    def test_first_removal(self, g1):
        trace = full_trace(g1.graph)
        assert list(trace.records[0].min_edges) == [5, 15]
        assert logged_removals(trace)[0] == [4, 10, 13, 20]

    def test_main_iteration_is_third(self, g1):
        trace = full_trace(g1.graph)
        rec = trace.main_iteration()
        assert rec.index == 2
        assert len(rec.surviving) == 20
        assert list(rec.surviving) == g1.expected["c2"]
        assert rec.min_weight == 3


class TestG3Trace:
    def test_eight_iterations(self, g3):
        trace = full_trace(g3.graph)
        assert [(r.min_weight, r.max_weight) for r in trace.records] == [
            (1, 6), (1, 6), (2, 6), (1, 5), (2, 5), (1, 4), (2, 4), (3, 3)]

    def test_published_weight_vectors(self, g3):
        logged = full_trace(g3.graph).to_json_obj()
        for i in range(3):
            assert logged[i]["weights"] == g3.expected["p_by_iteration"][str(i)]

    def test_min_edges_and_removals(self, g3):
        trace = full_trace(g3.graph)
        got_edges = [list(r.min_edges) for r in trace.records]
        assert got_edges == g3.expected["min_edges_by_iteration"]
        assert logged_removals(trace) == g3.expected["removed_by_iteration"]

    def test_early_stop_final_state(self, g3):
        trace = full_trace(g3.graph, mode=MODE_EARLY_STOP)
        last = trace.records[-1]
        assert last.min_weight == last.max_weight == 3
        assert len(last.surviving) == 10
        assert list(last.surviving) == g3.expected["final_surviving"]
        assert trace.main_iteration() is last


class TestG2Trace:
    def test_initial_iteration_is_main(self, g2):
        trace = full_trace(g2.graph)
        assert trace.to_json_obj()[0]["weights"] == g2.expected["p0"]
        assert (trace.records[0].min_weight, trace.records[0].max_weight) == (3, 5)
        assert trace.main_iteration() is trace.records[0]
        assert list(trace.main_iteration().min_edges) == g2.expected["min_edges"]


def test_early_stop_changes_main_designation_only(g2):
    # identical records either way; g2's largest MIN is at iteration 0 while
    # MIN first equals MAX at the terminal single-triangle iteration, so the
    # two modes designate different main iterations
    exhaustive = full_trace(g2.graph)
    early = full_trace(g2.graph, mode=MODE_EARLY_STOP)
    assert exhaustive.records == early.records
    assert exhaustive.main_iteration().index == 0
    assert early.main_iteration().index == len(early.records) - 1


@pytest.mark.parametrize("name", ["g1", "g2", "g4"])
def test_main_iteration_is_the_fixtures(name):
    # each sidecar names its main iteration, and g4's also its MIN, MAX
    # and minimum edges
    want = load_fixture(name).expected
    main = full_trace(load_fixture(name).graph).main_iteration()
    assert main.index == want["main_iteration"]
    if name == "g4":
        assert (main.min_weight, main.max_weight, list(main.min_edges)) == (
            want["main_min"], want["main_max"], want["main_min_edges"])


def test_unknown_mode_rejected(g2):
    from tricliq import GraphError
    with pytest.raises(GraphError):
        full_trace(g2.graph, mode="sideways")


class TestPruneStep:
    """The from-scratch reference step, which the engine is checked against."""

    def test_single_triangle_removes_itself(self):
        g = complete(3)
        tris = enumerate_triangles(g)
        record, survivors = prune_step(g, tris, [1])
        assert record.removed == (1,)
        assert survivors == ()

    def test_empty_input_rejected(self):
        g = complete(3)
        with pytest.raises(EmptyIterationError):
            prune_step(g, enumerate_triangles(g), [])

    def test_matches_full_trace(self, g1):
        g = g1.graph
        tris = enumerate_triangles(g)
        record, survivors = prune_step(g, tris, range(1, 31))
        trace = full_trace(g)
        assert_matches_reference(g, trace, reference_trace(g, MODE_EXHAUSTIVE))
        got = trace.records[0]
        logged = trace.to_json_obj()[0]
        assert (got.index, got.surviving, tuple(logged["weights"]),
                got.min_weight, got.max_weight, got.min_edges,
                tuple(logged["removed_ids"]), got.removed_count) == (
            record.index, record.surviving, record.weights, record.min_weight,
            record.max_weight, record.min_edges, record.removed,
            len(record.removed))
        assert survivors == trace.records[1].surviving


class TestMainIteration:
    def test_empty_trace_raises(self):
        trace = full_trace(moon_moser(2))
        assert trace.records == ()
        assert trace.to_json_obj() == []
        with pytest.raises(EmptyTraceError):
            trace.main_iteration()

    def test_single_triangle_graph(self):
        trace = full_trace(complete(3))
        assert trace.main_iteration() is trace.records[0]

    def test_single_triangle_with_pendant_edges(self):
        # edges 1..3 form the triangle; 4 and 5 hang off it with weight 0
        g = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        for mode in MODES:
            trace = full_trace(g, mode=mode)
            assert_matches_reference(g, trace, reference_trace(g, mode))
            (rec,) = trace.records
            assert (rec.min_weight, rec.max_weight) == (1, 1)
            assert rec.min_edges == (1, 2, 3) and rec.removed_count == 1
            assert rec.surviving == (1,) and logged_removals(trace) == [[1]]
            assert trace.to_json_obj()[0]["weights"] == [1, 1, 1, 0, 0]
            assert trace.main_iteration() is rec

    def test_triangle_free_graph(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        for mode in MODES:
            trace = full_trace(g, mode=mode)
            assert trace.records == () and reference_trace(g, mode) == []
            assert trace.to_json_obj() == []

    def test_complete_graph_is_uniform_at_iteration_0(self):
        # every edge of K_n lies on n-2 triangles, so MIN = MAX at once and
        # the single iteration removes all C(n,3) triangles
        for n in range(3, 9):
            trace = full_trace(complete(n), mode=MODE_EARLY_STOP)
            assert_matches_reference(complete(n), trace,
                                     reference_trace(complete(n), MODE_EARLY_STOP))
            (rec,) = trace.records
            assert rec.min_weight == rec.max_weight == n - 2
            assert rec.removed_count == n * (n - 1) * (n - 2) // 6
            assert trace.main_iteration() is rec

    def test_moon_moser_first_iteration_already_uniform(self):
        for k in (3, 4):
            trace = full_trace(moon_moser(k))
            first = trace.records[0]
            assert first.min_weight == first.max_weight == 3 * (k - 2)

    def test_turan13_initial_min_max(self, turan13):
        trace = full_trace(turan13.graph)
        assert (trace.records[0].min_weight, trace.records[0].max_weight) == (6, 7)


def test_trace_json_schema(g1):
    objs = full_trace(g1.graph).to_json_obj()
    assert [sorted(o) for o in objs] == [
        ["i", "max", "min", "min_edges", "removed_ids", "weights"]] * 3
    assert objs[0]["i"] == 0 and objs[0]["min"] == 2 and objs[0]["max"] == 5


def test_trace_of_a_triangle_subset_reports_their_ids():
    # K_5's triangles inside {2,3,4,5} form a K_4: one iteration at weight 2
    # removes all four, named by their ids in K_5 (7..10)
    g = complete(5)
    inside = enumerate_triangles(g).inside(frozenset({2, 3, 4, 5}))
    trace = full_trace(g, triangles=inside)
    assert [(r.min_weight, r.max_weight) for r in trace.records] == [(2, 2)]
    assert trace.records[0].surviving == (7, 8, 9, 10)
    assert logged_removals(trace) == [[7, 8, 9, 10]]
    assert trace.to_json_obj()[0]["weights"] == [0, 0, 0, 0, 2, 2, 2, 2, 2, 2]


K4_LISTING = enumerate_triangles(complete(4))

# weight_vectors is listed once under the name of each vector it returns
ENTRY_POINTS = {
    "full_trace": lambda g, triangles: full_trace(g, triangles=triangles),
    "extract_max_clique":
        lambda g, triangles: extract_max_clique(g, triangles=triangles),
    "subgraph_for_edge":
        lambda g, triangles: subgraph_for_edge(g, [1], 1, triangles),
    "edge_weight_vector": lambda g, triangles: weight_vectors(g, triangles)[0],
    "vertex_weight_vector": lambda g, triangles: weight_vectors(g, triangles)[1],
}


@pytest.mark.parametrize("entry", ["full_trace", "extract_max_clique",
                                   "edge_weight_vector", "vertex_weight_vector"])
@pytest.mark.parametrize("g,triangles,message", [
    # K_5's listing on K_4: its triangle 1, (1,2,3), names (2,3) by K_5's
    # edge 5, and its triangle 3, (1,2,5), names edge 7 of K_5
    (complete(4), enumerate_triangles(complete(5)),
     "triangle 1 with vertices (1, 2, 3) and edges (1, 2, 5) is not a "
     "triangle of the graph"),
    # columns: ids, the three vertices, the three edge ids
    (complete(3), TriangleStore([1], [1], [2], [3], [0], [2], [3]),
     "triangle 1 with vertices (1, 2, 3) and edges (0, 2, 3) is not a "
     "triangle of the graph"),
    # K_4's triangle 1, then (1,2,4) naming edge -1
    (complete(4), TriangleStore([1, 2], [1, 1], [2, 2], [3, 4],
                                [1, -1], [2, 1], [4, 3]),
     "triangle 2 with vertices (1, 2, 4) and edges (-1, 1, 3) is not a "
     "triangle of the graph"),
    # two edges outside
    (complete(3), TriangleStore([1], [1], [2], [3], [7], [0], [3]),
     "triangle 1 with vertices (1, 2, 3) and edges (7, 0, 3) is not a "
     "triangle of the graph"),
], ids=["above-m", "zero", "negative", "two-outside"])
def test_triangles_naming_edges_outside_the_graph_are_rejected(
        entry, g, triangles, message):
    with pytest.raises(GraphError) as err:
        ENTRY_POINTS[entry](g, triangles)
    assert str(err.value) == message


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("triangles,message", [
    (tuple(K4_LISTING), "triangles must be a TriangleStore, not tuple"),
    (K4_LISTING.take([1, 0, 2, 3]),
     "triangle ids must strictly ascend"),
    # K_4's triangle (2,3,4) under id 1, then (1,2,3) under id 2: the
    # lowest vertices decrease, so the triples do not ascend
    (TriangleStore([1, 2], [2, 1], [3, 2], [4, 3], [4, 1], [5, 2], [6, 4]),
     "triangles' vertex triples must strictly ascend"),
    # K_4's triangle (1,2,3) twice, under ids 1 and 2
    (TriangleStore([1, 2], [1, 1], [2, 2], [3, 3], [1, 1], [2, 2], [4, 4]),
     "triangles' vertex triples must strictly ascend"),
    # K_4's triangle (1,3,4) under id 1, then (1,2,3) under id 2: one run of
    # the lowest vertex, out of order within it
    (TriangleStore([1, 2], [1, 1], [3, 2], [4, 3], [2, 1], [3, 2], [6, 4]),
     "triangles' vertex triples must strictly ascend"),
    # K_4's listing with its last second-edge id, or its last id, dropped
    (TriangleStore(list(K4_LISTING.ids), K4_LISTING.us, K4_LISTING.vs,
                   K4_LISTING.ws, K4_LISTING.e1, K4_LISTING.e2[:-1],
                   K4_LISTING.e3),
     "triangle columns differ in length: "
     "ids 4, us 4, vs 4, ws 4, e1 4, e2 3, e3 4"),
    (TriangleStore(list(K4_LISTING.ids)[:-1], K4_LISTING.us, K4_LISTING.vs,
                   K4_LISTING.ws, K4_LISTING.e1, K4_LISTING.e2,
                   K4_LISTING.e3),
     "triangle columns differ in length: "
     "ids 3, us 4, vs 4, ws 4, e1 4, e2 4, e3 4"),
    # K_4's listing with its lowest and highest vertex columns swapped: the
    # triples still ascend, so only the per-triangle check shows it
    (TriangleStore(K4_LISTING.ids, K4_LISTING.ws, K4_LISTING.vs,
                   K4_LISTING.us, K4_LISTING.e1, K4_LISTING.e2,
                   K4_LISTING.e3),
     "triangle 1 with vertices (3, 2, 1) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
    # ... or its two higher vertex columns swapped
    (TriangleStore(K4_LISTING.ids, K4_LISTING.us, K4_LISTING.ws,
                   K4_LISTING.vs, K4_LISTING.e1, K4_LISTING.e2,
                   K4_LISTING.e3),
     "triangle 1 with vertices (1, 3, 2) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
    # K_4's edges 1, 2, 4 under the vertices (1, 2, 99), then (0, 2, 3)
    (TriangleStore([1], [1], [2], [99], [1], [2], [4]),
     "triangle 1 with vertices (1, 2, 99) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
    (TriangleStore([1], [0], [2], [3], [1], [2], [4]),
     "triangle 1 with vertices (0, 2, 3) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
], ids=["tuple", "non-ascending-take", "lowest-vertex-decreases",
        "duplicate", "disordered-run", "short-edge-column", "short-id-column",
        "vertices-descend", "higher-vertices-swapped", "vertex-above-n",
        "vertex-zero"])
def test_triangles_out_of_canonical_order_are_rejected(entry, triangles, message):
    # the trace names removals in position order and bisects ids, and the
    # extraction bisects the lowest vertices: any other order misleads both;
    # a triangle's vertices must ascend and lie in the graph, or H and the
    # witnesses read the wrong vertices
    with pytest.raises(GraphError) as err:
        ENTRY_POINTS[entry](complete(4), triangles)
    assert str(err.value) == message


# the path 1-2-3-4: (1,2) is edge 1, (2,3) edge 2, (3,4) edge 3
PATH4 = Graph(4, [(1, 2), (2, 3), (3, 4)])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("g,triangles,message", [
    # a triangle-free graph with a made-up triangle over its first edges
    (PATH4, TriangleStore([1], [1], [2], [3], [1], [2], [3]),
     "triangle 1 with vertices (1, 2, 3) and edges (1, 2, 3) is not a "
     "triangle of the graph"),
    # K_4's (1,2,3) naming (2,3) by edge 5, which is (2,4): only the third
    # edge column is wrong
    (complete(4), TriangleStore([1], [1], [2], [3], [1], [2], [5]),
     "triangle 1 with vertices (1, 2, 3) and edges (1, 2, 5) is not a "
     "triangle of the graph"),
    # K_4's listing with its last two edge columns swapped: every row still
    # names its own three edges, in the wrong columns
    (complete(4),
     TriangleStore(K4_LISTING.ids, K4_LISTING.us, K4_LISTING.vs,
                   K4_LISTING.ws, K4_LISTING.e1, K4_LISTING.e3,
                   K4_LISTING.e2),
     "triangle 1 with vertices (1, 2, 3) and edges (1, 4, 2) is not a "
     "triangle of the graph"),
    # (1,3) is no edge of the path: a lookup that reads ``None`` or ``0``
    # for a missing pair must not match an edge id of ``None`` or ``0``
    (PATH4, TriangleStore([1], [1], [2], [3], [1], [None], [2]),
     "triangle 1 with vertices (1, 2, 3) and edges (1, None, 2) is not a "
     "triangle of the graph"),
    (PATH4, TriangleStore([1], [1], [2], [3], [1], [0], [2]),
     "triangle 1 with vertices (1, 2, 3) and edges (1, 0, 2) is not a "
     "triangle of the graph"),
], ids=["path+fake", "k4-wrong-edge", "swapped-edge-columns", "none-edge",
        "zero-edge-on-a-non-edge"])
def test_rows_that_are_not_triangles_of_the_graph_are_rejected(
        entry, g, triangles, message):
    # a row is a triangle of g only if the edge index names (u,v) e1,
    # (u,w) e2 and (v,w) e3; anything else is traced, counted or grown
    # from as if it were one
    with pytest.raises(GraphError) as err:
        ENTRY_POINTS[entry](g, triangles)
    assert str(err.value) == message


def k4_listing_with(name, value):
    """K_4's listing with its first row's entry in column ``name`` replaced."""
    cols = {col: list(getattr(K4_LISTING, col)) for col in TriangleStore.__slots__}
    cols[name][0] = value
    return TriangleStore(*cols.values())


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("triangles,message", [
    (k4_listing_with("vs", None),
     "triangle 1 with vertices (1, None, 3) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
    (k4_listing_with("e1", 1.0),
     "triangle 1 with vertices (1, 2, 3) and edges (1.0, 2, 4) is not a "
     "triangle of the graph"),
    (k4_listing_with("e1", True),
     "triangle 1 with vertices (1, 2, 3) and edges (True, 2, 4) is not a "
     "triangle of the graph"),
    (k4_listing_with("ws", 3.0),
     "triangle 1 with vertices (1, 2, 3.0) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
    (TriangleStore(list(map(str, K4_LISTING.ids)), K4_LISTING.us,
                   K4_LISTING.vs, K4_LISTING.ws, K4_LISTING.e1,
                   K4_LISTING.e2, K4_LISTING.e3),
     "triangle '1' with vertices (1, 2, 3) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
    (TriangleStore(list(map(float, K4_LISTING.ids)), K4_LISTING.us,
                   K4_LISTING.vs, K4_LISTING.ws, K4_LISTING.e1,
                   K4_LISTING.e2, K4_LISTING.e3),
     "triangle 1.0 with vertices (1, 2, 3) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
    (k4_listing_with("us", True),
     "triangle 1 with vertices (True, 2, 3) and edges (1, 2, 4) is not a "
     "triangle of the graph"),
], ids=["none-vertex", "float-edge", "bool-edge", "float-vertex", "str-ids",
        "float-ids", "true-vertex"])
def test_rows_whose_values_are_not_ints_are_rejected(entry, triangles, message):
    # ``1.0 == 1`` and ``True == 1``, so an edge-index lookup alone lets
    # such a row through, to be traced, counted, or to fail later with a
    # TypeError; ``None`` cannot even be compared
    with pytest.raises(GraphError) as err:
        ENTRY_POINTS[entry](complete(4), triangles)
    assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 16), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10**6))
def test_trace_invariants_on_random_graphs(n, p, seed):
    g = gnp(n, p, seed)
    tris = enumerate_triangles(g)
    trace = full_trace(g)

    # the bucket-queue engine must match the from-scratch recount bit-for-bit
    assert_matches_reference(g, trace, reference_trace(g, MODE_EXHAUSTIVE))

    # early-stop records the same iterations (removal empties the set at MIN=MAX)
    early = full_trace(g, mode=MODE_EARLY_STOP)
    assert early.records == trace.records

    by_id = {t.id: t for t in tris}
    logged = trace.to_json_obj()
    previous = None
    for rec, obj in zip(trace.records, logged):
        removed = obj["removed_ids"]
        # sizes strictly decrease and the set relation C_{i+1} = C_i minus Q_i holds
        if previous is not None:
            assert set(rec.surviving) == set(previous.surviving) - set(previous_removed)
            assert len(rec.surviving) < len(previous.surviving)
        assert rec.min_weight <= rec.max_weight
        assert removed and rec.removed_count == len(removed)
        # recompute P_i independently from the surviving ids
        recomputed = reference_edge_weights(g, [by_id[c] for c in rec.surviving])
        assert list(recomputed) == obj["weights"]
        # Q_i is exactly the set of triangles touching a minimum-weight edge
        min_set = set(rec.min_edges)
        expected_q = [c for c in rec.surviving
                      if min_set & set(by_id[c].edges)]
        assert removed == expected_q
        previous, previous_removed = rec, removed
    assert len(trace.records) <= g.n * (g.n - 1) * (g.n - 2) // 6


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(edge_sets(), st.sampled_from(MODES))
def test_engine_matches_reference_recount(g, mode):
    assert_matches_reference(g, full_trace(g, mode=mode), reference_trace(g, mode))


def streamed(trace) -> str:
    buf = io.StringIO()
    trace.write_json(buf.write)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(edge_sets(), st.sampled_from(MODES))
def test_streamed_json_equals_the_object_encoding(g, mode):
    trace = full_trace(g, mode=mode)
    assert streamed(trace) == json.dumps(reference_json_obj(g, trace))
    assert trace.to_json_obj() == reference_json_obj(g, trace)


def test_streamed_json_of_a_triangle_free_graph_is_an_empty_list():
    g = moon_moser(2)
    trace = full_trace(g)
    assert not trace.records
    assert streamed(trace) == "[]" == json.dumps(reference_json_obj(g, trace))


@pytest.mark.parametrize("n", [5, 7])
def test_streamed_json_of_a_triangle_subset(n):
    # ids of a subset skip numbers and its weights leave edges at 0
    g = complete(n)
    inside = enumerate_triangles(g).inside(frozenset(range(2, n + 1)))
    trace = full_trace(g, triangles=inside)
    assert streamed(trace) == json.dumps(reference_json_obj(g, trace))


@pytest.mark.parametrize("m", [3, 4, 5, 15, 16, 17])
def test_streamed_json_across_weight_blocks(m):
    # the log re-joins weight tokens in blocks of isqrt(m) edges, here 1, 2,
    # 2, 3, 4 and 4 wide, so m = 5 and 17 end in a partial block; random
    # graphs with m of about two thirds of n's pairs, with shuffled edge
    # ids, change edges in the first and the last block
    width = isqrt(m)
    n = next(k for k in count(3) if k * (k - 1) // 2 * 2 >= 3 * m)
    pairs = list(combinations(range(1, n + 1), 2))
    hit = set()
    for seed in range(30):
        rng = random.Random(seed)
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v)
                      for u, v in rng.sample(pairs, m)])
        trace = full_trace(g)
        assert streamed(trace) == json.dumps(reference_json_obj(g, trace)), seed
        weights = [[0] * m] + [o["weights"] for o in trace.to_json_obj()]
        for before, after in zip(weights, weights[1:]):
            hit.update(j // width for j, (a, b) in enumerate(zip(before, after))
                       if a != b)
    assert {0, (m - 1) // width} <= hit


def test_engine_matches_reference_on_the_corpus_slice():
    for i in CORPUS_SLICE:
        g = corpus_graph(i)
        for mode in MODES:
            assert_matches_reference(g, full_trace(g, mode=mode),
                                     reference_trace(g, mode))


def test_streamed_json_on_the_corpus_slice():
    for i in CORPUS_SLICE:
        g = corpus_graph(i)
        for mode in MODES:
            trace = full_trace(g, mode=mode)
            want = reference_json_obj(g, trace)
            assert streamed(trace) == json.dumps(want), i
            assert trace.to_json_obj() == want, i


def test_streaming_holds_one_record_not_the_log():
    # 689 records of 2466 weights, 5.9 MiB of JSON: the object form and its
    # string peak at about 25 MiB, the stream at about 1 MiB
    trace = full_trace(gnp(100, 0.5, 1))
    written = []
    tracemalloc.start()
    try:
        trace.write_json(lambda text: written.append(len(text)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(written) == len(trace.records) + 1 and sum(written) > 5 << 20
    assert peak <= 4 << 20


def removed_ids_of_chunk(text: str) -> list[int]:
    """The ``removed_ids`` of one record that ``write_json`` wrote."""
    start = text.index('"removed_ids": [') + len('"removed_ids": ')
    return json.loads(text[start:text.index("]", start) + 1])


def test_a_trace_holds_no_removal_lists():
    # 162530 triangles.  Beyond the store, a trace holds the per-edge lists
    # of positions, the positions themselves and ``at``: about 72 bytes a
    # triangle.  A tuple of removed ids per record would add about 41.
    # Writing the log, or reading every record's removed count as the text
    # table does, leaves no grouping of those positions by iteration
    # behind, which would add about 38 more.
    g = gnp(200, 0.5, 1)
    store = enumerate_triangles(g)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        trace = full_trace(g, triangles=store)
        held = tracemalloc.get_traced_memory()[0] - before
        trace.write_json(lambda text: None)
        held_after_log = tracemalloc.get_traced_memory()[0] - before
        removed_count = sum(r.removed_count for r in trace.records)
        held_after_counts = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.triangles) == len(store) == 162530
    assert held <= 80 * len(store)
    assert held_after_log <= 80 * len(store)
    assert held_after_counts <= 80 * len(store)
    # the records' removals, as the log names them, partition the ids
    chunks = []
    trace.write_json(chunks.append)
    removed = list(map(removed_ids_of_chunk, chunks[:-1]))
    assert [r.removed_count for r in trace.records] == list(map(len, removed))
    assert removed_count == len(store)
    assert sorted(chain.from_iterable(removed)) == list(store.ids)


class CountingSet(set):
    """A ``set`` that counts the ``remove`` calls made on any instance."""

    removes = 0

    def remove(self, item):
        CountingSet.removes += 1
        super().remove(item)


@pytest.mark.parametrize("g,moves,triangles", [
    (gnp(76, 0.5, 1), 15313, 8184),
    (complete(8), 0, 56),
    (moon_moser(4), 0, 108),
], ids=["gnp76", "k8", "mm4"])
def test_the_peel_moves_only_edges_outside_the_minimum_set(
        g, moves, triangles, monkeypatch):
    # each bucket move is one ``remove``, from the bucket an edge leaves.  A
    # minimum edge ends its iteration at weight 0 whatever it removes, so
    # the peel moves only the other edges of each removed triangle: at most
    # two per triangle, and none where every edge is a minimum edge
    monkeypatch.setattr(pruning, "set", CountingSet, raising=False)
    CountingSet.removes = 0
    trace = full_trace(g)
    edges = {t.id: t.edges for t in trace.triangles}
    want = 0
    for r, removed in zip(trace.records, logged_removals(trace)):
        minimum = set(r.min_edges)
        want += sum(e not in minimum for tid in removed for e in edges[tid])
    assert len(edges) == triangles
    # a peel that moved all three edges would make 3 * triangles moves
    assert CountingSet.removes == want == moves <= 2 * triangles


def test_records_of_two_traces_of_one_graph_are_equal_and_hash_equal(g3):
    first, second = full_trace(g3.graph).records, full_trace(g3.graph).records
    assert first == second and len(first) == 8
    assert list(map(hash, first)) == list(map(hash, second))
    assert set(first) == set(second) and len(set(first + second)) == 8


def test_traces_compare_and_hash_by_identity(g3):
    # a trace owns its removal state, which its records do not determine,
    # so two traces of one graph are unequal while their records are equal
    trace, other = full_trace(g3.graph), full_trace(g3.graph)
    assert trace == trace and {trace: 1}[trace] == 1
    assert trace != other and trace.records == other.records
    assert len({trace, other}) == 2


def test_records_differing_only_in_their_removals_are_equal(g1):
    # iteration 0 removes triangles 4, 10, 13 and 20; the same record 1 over
    # removal state that leaves triangle 4 to iteration 1 has it surviving,
    # but records compare and hash by what the peel stored, not by that state
    record = full_trace(g1.graph).records[1]
    r = record._removals
    at = list(r.at)
    at[r.store.ids.index(4)] = 1
    other = dataclasses.replace(
        record, _removals=pruning._Removals(r.m, r.store, at, r.through))
    assert set(other.surviving) - set(record.surviving) == {4}
    assert record == other and other == record
    assert hash(record) == hash(other)


def test_record_repr_shows_its_removals(g1):
    assert repr(full_trace(g1.graph).records[0]) == (
        "IterationRecord(index=0, min_weight=2, max_weight=5, "
        "min_edges=(5, 15), removed_count=4)")


@pytest.mark.parametrize("log_first", [False, True])
def test_removed_is_an_ascending_tuple_of_ids(g3, log_first):
    # the log names each record's removed ids in ascending order, the same
    # whether or not it was written before; a subset's ids skip numbers
    g = complete(7)
    inside = enumerate_triangles(g).inside(frozenset(range(2, 8)))
    for trace, want in (
            (full_trace(g3.graph), g3.expected["removed_by_iteration"]),
            (full_trace(g, triangles=inside), [list(inside.ids)])):
        if log_first:
            streamed(trace)
        got = logged_removals(trace)
        assert got == want
        assert all(ids == sorted(ids) and all(type(c) is int for c in ids)
                   for ids in got)
        assert [r.removed_count for r in trace.records] == list(map(len, want))
        assert logged_removals(trace) == got


def omega_bound(trace) -> int:
    """max_i MIN_i + 2, or 2 when there are no records: an upper bound on omega.

    Take a maximum clique K of size L >= 3.  Before the first iteration that
    removes a triangle inside K, each edge of K lies on at least L - 2
    surviving triangles; that iteration removes it through one of its own
    edges at minimum weight, so its MIN is at least L - 2.
    """
    return max((r.min_weight for r in trace.records), default=0) + 2


def test_omega_bound_on_the_corpus():
    for i in range(1000):
        g = corpus_graph(i)
        omega = max_clique_exact(g).omega
        for mode in MODES:
            assert omega <= omega_bound(full_trace(g, mode=mode)), (i, mode)


@settings(max_examples=150, deadline=None)
@given(edge_sets(), st.sampled_from(MODES))
def test_omega_bound_on_random_graphs(g, mode):
    assert max_clique_exact(g).omega <= omega_bound(full_trace(g, mode=mode))


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_omega_bound_catches_a_peel_reporting_min_one_too_small(n, monkeypatch):
    # K_n has one iteration with MIN = n - 2, so the bound is tight there
    g = complete(n)
    for mode in MODES:
        assert omega_bound(full_trace(g, mode=mode)) == n
    record = pruning.IterationRecord
    monkeypatch.setattr(pruning, "IterationRecord", lambda **fields: record(
        **{**fields, "min_weight": fields["min_weight"] - 1}))
    for mode in MODES:
        trace = full_trace(g, mode=mode)
        assert trace.records[0].min_weight == n - 3
        assert not max_clique_exact(g).omega <= omega_bound(trace)
