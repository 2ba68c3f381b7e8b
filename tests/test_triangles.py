import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tricliq import (
    Graph,
    GraphError,
    complete,
    enumerate_triangles,
    full_trace,
    min_max,
    moon_moser,
    weight_vectors,
)
from tricliq.triangles import TriangleStore

from conftest import CORPUS_SLICE, corpus_graph, gnp
from graph_reference import neighbors
from triangles_reference import (
    reference_edge_weights,
    reference_inside,
    reference_triangles,
    reference_vertex_weights,
    ring_sum,
)


class TestEnumeration:
    def test_k4_has_four_triangles(self):
        tris = enumerate_triangles(complete(4))
        assert len(tris) == 4
        assert [t.vertices for t in tris] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_complete_graph_counts(self, n):
        assert len(enumerate_triangles(complete(n))) == len(
            list(combinations(range(n), 3)))

    def test_moon_moser_4_count(self):
        assert len(enumerate_triangles(moon_moser(4))) == 108

    def test_fixture_counts(self, g1, g2, g3, g4, turan13):
        for fx in (g1, g2, g3, g4, turan13):
            count = fx.expected["triangle_count"]
            assert len(enumerate_triangles(fx.graph)) == count, fx.name

    def test_triangle_free_graph(self):
        assert len(enumerate_triangles(moon_moser(2))) == 0

    def test_ids_are_positional(self, g3):
        tris = enumerate_triangles(g3.graph)
        assert [t.id for t in tris] == list(range(1, 40))

    def test_count_bound(self, g4):
        g = g4.graph
        assert len(enumerate_triangles(g)) <= g.n * (g.n - 1) * (g.n - 2) // 6

    def test_listing_a_large_cycle_costs_little_memory(self):
        # C_20000 has no triangle; building it and looking for them must
        # cost memory linear in n + m, not a bitset of n bits per vertex
        tracemalloc.start()
        try:
            g = Graph(20000, [(v, v % 20000 + 1) for v in range(1, 20001)])
            assert len(enumerate_triangles(g)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 << 20

    def test_listing_builds_no_index_of_its_own(self):
        # the listing reads the graph's higher-neighbour dicts; building a
        # second set of them per call took 4.4 MiB here
        g = Graph(20000, [(v, v % 20000 + 1) for v in range(1, 20001)])
        tracemalloc.start()
        try:
            store = enumerate_triangles(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 0
        assert peak <= 1 << 20

    def test_structure(self, g3):
        g = g3.graph
        for t in enumerate_triangles(g):
            # the three edges connect exactly the three vertex pairs
            pairs = {g.endpoints(e) for e in t.edges}
            assert pairs == set(combinations(t.vertices, 2))
            # the edge sets of the three single edges ring-sum to the triangle
            assert ring_sum([{e} for e in t.edges]) == frozenset(t.edges)


class TestWeightVectors:
    def test_k4_edge_weights_all_two(self):
        g = complete(4)
        w, _ = weight_vectors(g, enumerate_triangles(g))
        assert list(w) == [2] * 6

    def test_k4_vertex_weights_all_three(self):
        g = complete(4)
        _, w = weight_vectors(g, enumerate_triangles(g))
        assert list(w) == [3] * 4

    def test_g1_initial_vector_matches_table(self, g1):
        w, _ = weight_vectors(g1.graph, enumerate_triangles(g1.graph))
        assert list(w) == g1.expected["p0"]
        assert min_max(w) == (2, 5)

    def test_moon_moser_4_uniform(self):
        g = moon_moser(4)
        w, _ = weight_vectors(g, enumerate_triangles(g))
        assert set(w) == {6}

    def test_moon_moser_3_vertex_weights(self):
        g = moon_moser(3)
        _, w = weight_vectors(g, enumerate_triangles(g))
        assert list(w) == [9] * 9

    def test_turan13_weights_by_part_pair(self, turan13):
        g = turan13.graph
        w, _ = weight_vectors(g, enumerate_triangles(g))
        assert list(w) == turan13.expected["p0"]
        part = lambda v: (v - 1) // 3 if v <= 9 else 3
        for e in range(1, g.m + 1):
            u, v = g.endpoints(e)
            expected = 6 if (part(u) == 3 or part(v) == 3) else 7
            assert w[e - 1] == expected

    def test_triangle_free_all_zero(self):
        g = moon_moser(2)
        empty = enumerate_triangles(g)
        assert len(empty) == 0
        edges, vertices = weight_vectors(g, empty)
        assert set(edges) == set(vertices) == {0}

    # columns: ids, the three vertices, the three edge ids
    def test_out_of_range_edge_rejected(self):
        bogus = TriangleStore([1], [1], [2], [3], [1], [2], [99])
        with pytest.raises(GraphError) as err:
            weight_vectors(complete(3), bogus)
        assert str(err.value) == (
            "triangle 1 with vertices (1, 2, 3) and edges (1, 2, 99) is not a "
            "triangle of the graph")

    def test_out_of_range_vertex_rejected(self):
        bogus = TriangleStore([1], [1], [2], [99], [1], [2], [3])
        with pytest.raises(GraphError) as err:
            weight_vectors(complete(3), bogus)
        assert str(err.value) == (
            "triangle 1 with vertices (1, 2, 99) and edges (1, 2, 3) is not a "
            "triangle of the graph")


class TestMinMax:
    def test_g1_p0(self, g1):
        assert min_max(g1.expected["p0"]) == (2, 5)

    def test_zeros_excluded(self, g1):
        assert min_max(g1.expected["p1"]) == (2, 4)

    def test_all_zero(self):
        assert min_max([0, 0]) == (0, 0)


def brute_force_triangles(g, vertices=None):
    """Every triple of ``vertices`` (default: all of ``g``'s) tested pair by
    pair, ascending, with its edge ids."""
    return [
        ((u, v, w), tuple(sorted((g.edge_id(u, v), g.edge_id(u, w), g.edge_id(v, w)))))
        for u, v, w in combinations(vertices or g.vertices(), 3)
        if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10**6))
def test_listing_matches_brute_force_on_shuffled_edges(n, p, seed):
    # shuffled edges with random endpoint order, so edge ids and dict order
    # are not in lexicographic pair order
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in gnp(n, p, seed).edges]
    rng.shuffle(pairs)
    g = Graph(n, pairs)
    tris = enumerate_triangles(g)
    assert [t.id for t in tris] == list(range(1, len(tris) + 1))
    assert [(t.vertices, t.edges) for t in tris] == brute_force_triangles(g)


def hub(n: int) -> Graph:
    """A hub at label h = n // 2 + 1 joined to every other vertex, plus the
    paths 1-2-...-(h-1) and (h+1)-...-n: every vertex below the hub has it
    as a higher neighbour, and the hub has n - h higher neighbours."""
    h = n // 2 + 1
    return Graph(n, [(v, h) for v in range(1, n + 1) if v != h]
                 + [(v, v + 1) for v in range(1, n) if h not in (v, v + 1)])


def chung_lu(n: int, mean_degree: float, exponent: float, seed: int) -> Graph:
    """Seeded Chung-Lu graph: vertex i gets weight w_i proportional to
    i^(-1/(exponent-1)), scaled to the mean degree, and each pair is an edge
    with probability min(1, w_u w_v / sum(w)).  Skewed degrees, a few hubs.

    The weights fall as the labels rise, so along u's later vertices v the
    pair probability q only falls.  Each step skips a geometric number of
    pairs drawn at the last pair's probability p, an upper bound on the
    rest, and keeps the pair it lands on with probability q / p: O(n + m)
    expected draws (Miller & Hagberg, "Efficient generation of networks
    with given expected degrees", 2011)."""
    rng = random.Random(seed)
    raw = [i ** (-1 / (exponent - 1)) for i in range(1, n + 1)]
    scale = mean_degree * n / sum(raw)
    w = [0.0] + [x * scale for x in raw]  # w[v] for v in 1..n
    total = sum(w)
    edges = []
    for u in range(1, n):
        v = u + 1
        p = min(1.0, w[u] * w[v] / total)
        while v <= n:
            if p < 1:
                # 1 - random() lies in (0, 1], so its log is defined
                v += int(math.log(1.0 - rng.random()) / math.log1p(-p))
                if v > n:
                    break
            q = min(1.0, w[u] * w[v] / total)
            if rng.random() < q / p:
                edges.append((u, v))
            p = q
            v += 1
    return Graph(n, edges)


@pytest.mark.parametrize("g", [hub(41), hub(40), chung_lu(60, 6, 2.2, 1)],
                         ids=["hub41", "hub40", "chung-lu60"])
def test_listing_matches_brute_force_on_skewed_degrees(g):
    tris = enumerate_triangles(g)
    assert len(tris) > 0
    assert [(t.vertices, t.edges) for t in tris] == brute_force_triangles(g)


class CountingKeys(dict):
    """An edge-index dict that counts the keys its ``__iter__`` yields."""

    yielded = 0

    def __iter__(self):
        for key in super().__iter__():
            CountingKeys.yielded += 1
            yield key


def test_listing_walks_the_smaller_side_of_each_pair():
    # view-to-view set operations (``keys().isdisjoint(keys())``,
    # ``keys() & keys()``) iterate the dicts in C and never call a
    # subclass's ``__iter__``; iterating a whole dict does, as ``sorted``
    # does and ``keys().isdisjoint(d)`` does with a plain dict argument.
    # So the count is the listing's own walks of whole dicts, which must
    # stay within its O(sum over edges of min(deg u, deg v)) bound: on the
    # hub graph a walk of the hub's dict per lower neighbour is quadratic.
    g = hub(4001)
    up = g._up
    bound = g.m + sum(min(len(up[u]), len(up[v])) for u, v in g.edges)
    assert bound == 19991
    counted = tuple(map(CountingKeys, up))
    object.__setattr__(g, "_up", counted)  # the test's own copy of the index
    CountingKeys.yielded = 0
    tris = enumerate_triangles(g)
    assert len(tris) == 2 * 1999  # (u, u+1, hub) below it and above it
    assert CountingKeys.yielded <= bound


def test_listing_keys_decode_at_the_label_bounds():
    # the lowest and highest triples of a large vertex range give the
    # smallest and largest keys (u·N + v)·N + w; edges come in reverse file
    # order, so edge ids run against the pair order
    n = 100000
    pairs = [(1, 2), (1, 3), (2, 3), (n - 2, n - 1), (n - 2, n), (n - 1, n)]
    g = Graph(n, pairs[::-1])
    tris = enumerate_triangles(g)
    assert [t.id for t in tris] == [1, 2]
    # isolated vertices lie on no triangle, so the brute force may skip them
    touched = sorted({v for pair in pairs for v in pair})
    assert [(t.vertices, t.edges) for t in tris] == brute_force_triangles(g, touched)
    assert [t.vertices for t in tris] == [(1, 2, 3), (n - 2, n - 1, n)]
    assert [t.edges for t in tris] == [(4, 5, 6), (1, 2, 3)]


@given(st.integers(3, 14), st.sampled_from([0.2, 0.4, 0.6, 0.8]),
       st.integers(0, 10**6))
def test_edge_weight_equals_common_neighbor_count(n, p, seed):
    # independent route: weight of (u,v) must equal |N(u) & N(v)|
    g = gnp(n, p, seed)
    w, _ = weight_vectors(g, enumerate_triangles(g))
    for e in range(1, g.m + 1):
        u, v = g.endpoints(e)
        assert w[e - 1] == len(neighbors(g, u) & neighbors(g, v))


@given(st.integers(3, 14), st.sampled_from([0.3, 0.6]), st.integers(0, 10**6))
def test_weight_sums_are_three_times_triangle_count(n, p, seed):
    g = gnp(n, p, seed)
    tris = enumerate_triangles(g)
    edges, vertices = weight_vectors(g, tris)
    assert sum(edges) == sum(vertices) == 3 * len(tris)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10**6),
       st.data())
def test_column_counts_match_per_triangle_reference(n, p, seed, data):
    # shuffled edges with random endpoint order, so edge ids do not follow
    # the triangles' order; the whole listing, an ascending take of it and
    # the empty take are each counted both ways
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in gnp(n, p, seed).edges]
    rng.shuffle(pairs)
    g = Graph(n, pairs)
    store = enumerate_triangles(g)
    ks = sorted(data.draw(st.sets(st.integers(0, len(store) - 1)))) if store else []
    for subset in (store, store.take(ks), store.take([])):
        assert weight_vectors(g, subset) == (reference_edge_weights(g, subset),
                                             reference_vertex_weights(g, subset))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 14), st.sampled_from([0.4, 0.7]), st.integers(0, 10**6),
       st.data())
def test_of_accepts_takes_and_names_the_one_corrupted_row(n, p, seed, data):
    # shuffled edges, so edge ids do not follow the pairs' order; a take at
    # ascending positions is accepted as it is, and corrupting one of its
    # rows, by naming another edge of g in one edge column, by swapping two
    # edge columns, or by replacing a value with an equal float, or a 1
    # with True, is rejected naming that row
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in gnp(n, p, seed).edges]
    rng.shuffle(pairs)
    g = Graph(n, pairs)
    store = enumerate_triangles(g)
    ks = sorted(data.draw(st.sets(st.integers(0, len(store) - 1)))) if store else []
    taken = store.take(ks)
    assert TriangleStore.of(g, taken) is taken
    if not ks:
        return
    j = data.draw(st.integers(0, len(ks) - 1))
    # the columns ids, us, vs, ws, e1, e2, e3
    cols = [list(getattr(taken, name)) for name in TriangleStore.__slots__]
    row = [col[j] for col in cols]
    corruption = data.draw(st.sampled_from(["other-edge", "swap", "not-an-int"]))
    if corruption == "other-edge":
        c = data.draw(st.integers(4, 6))
        row[c] = data.draw(st.integers(1, g.m).filter(lambda e: e != row[c]))
    elif corruption == "swap":
        a, b = data.draw(st.sampled_from([(4, 5), (4, 6), (5, 6)]))
        row[a], row[b] = row[b], row[a]
    else:
        c = data.draw(st.integers(0, 6))
        row[c] = True if row[c] == 1 and data.draw(st.booleans()) else float(row[c])
    for col, x in zip(cols, row):
        col[j] = x
    bad = TriangleStore(*cols)
    with pytest.raises(GraphError) as err:
        TriangleStore.of(g, bad)
    assert str(err.value) == (
        f"triangle {row[0]!r} with vertices {tuple(row[1:4])} and edges "
        f"{tuple(row[4:])} is not a triangle of the graph")


def test_k4_subgraph_ring_sum_is_empty():
    # the four triangles of any K4 cancel over GF(2)
    tris = enumerate_triangles(complete(4))
    assert ring_sum([t.edges for t in tris]) == frozenset()


def test_k4_subgraph_of_larger_graph_ring_sum_is_empty(g3):
    # {1,2,3,8} induces a K4 inside g3; its four triangles cancel too
    g = g3.graph
    quad = {1, 2, 3, 8}
    tris = [t for t in enumerate_triangles(g) if set(t.vertices) <= quad]
    assert len(tris) == 4
    assert ring_sum([t.edges for t in tris]) == frozenset()


def test_k5_ring_sum_is_full_edge_set():
    # K5 puts each edge in three triangles, so the parity flips: the sum is
    # every edge, not the empty set
    g = complete(5)
    tris = enumerate_triangles(g)
    assert ring_sum([t.edges for t in tris]) == frozenset(range(1, 11))


def test_internal_edge_membership_in_cliques(g3):
    # inside an L-clique every edge lies in exactly L-2 of its triangles
    g = g3.graph
    clique = [1, 2, 3, 8, 11]
    tris = [t for t in enumerate_triangles(g) if set(t.vertices) <= set(clique)]
    for u, v in combinations(clique, 2):
        e = g.edge_id(u, v)
        assert sum(e in t.edges for t in tris) == len(clique) - 2


def assert_store_matches_reference(g):
    """``store[k]``, slices, iteration and ``len`` of the columnar listing
    equal the tuple-building reference's."""
    store = enumerate_triangles(g)
    want = reference_triangles(g)
    assert len(store) == len(want)
    assert tuple(store) == want
    assert tuple(store[k] for k in range(len(want))) == want
    assert tuple(store[k] for k in range(-len(want), 0)) == want
    assert store[:] == want and store[1::2] == want[1::2]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10**6))
def test_store_matches_tuple_reference_on_shuffled_edges(n, p, seed):
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in gnp(n, p, seed).edges]
    rng.shuffle(pairs)
    assert_store_matches_reference(Graph(n, pairs))


def test_store_matches_tuple_reference_on_the_corpus_slice():
    for i in range(0, 1000, 10):
        assert_store_matches_reference(corpus_graph(i))


def test_listing_a_dense_graph_builds_no_tuple_per_triangle():
    # 162530 triangles: one Triangle tuple each peaks at about 44 MiB, flat
    # columns at about 8 MiB
    g = gnp(200, 0.5, 1)
    tracemalloc.start()
    try:
        store = enumerate_triangles(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == 162530
    assert peak <= 20 << 20


def columns(store: TriangleStore) -> list[list[int]]:
    return [list(getattr(store, name)) for name in TriangleStore.__slots__]


def assert_inside_matches_reference(store: TriangleStore, h: frozenset[int]):
    """``inside`` of ``store`` and of that result keep the rows the reference's
    filter over every row keeps, column for column: the second store's
    positions no longer follow its ids."""
    level = store.inside(h)
    assert columns(level) == columns(reference_inside(store, h)), sorted(h)
    sub = frozenset(sorted(h)[::2])
    assert columns(level.inside(sub)) == columns(reference_inside(level, sub))


def test_inside_matches_reference_on_the_corpus_slice():
    # each seed's H at the main record, that H with labels outside 1..n,
    # and seeded subsets of -1..n + 2 of every size up to n: some hold
    # fewer than three vertices, and most hold vertices that start no run
    for i in CORPUS_SLICE:
        g = corpus_graph(i)
        store = enumerate_triangles(g)
        rng = random.Random(i)
        hs = [frozenset(rng.sample(range(-1, g.n + 3), k)) for k in range(g.n + 1)]
        trace = full_trace(g, triangles=store)
        if trace.records:
            record = trace.main_iteration()
            seeds = [record.vertices_on(e) for e in record.min_edges]
            hs += seeds + [h | {0, g.n + 1} for h in seeds]
        for h in hs:
            assert_inside_matches_reference(store, h)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10**6),
       st.data())
def test_inside_matches_reference_on_random_subsets(n, p, seed, data):
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in gnp(n, p, seed).edges]
    rng.shuffle(pairs)
    store = enumerate_triangles(Graph(n, pairs))
    h = frozenset(data.draw(st.sets(st.integers(-1, n + 2))))
    assert_inside_matches_reference(store, h)


class CountingColumn(list):
    """A store column that counts the rows read through its slices."""

    rows = 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            self.rows += len(range(*k.indices(len(self))))
        return super().__getitem__(k)


def test_inside_reads_only_the_sub_runs_of_the_pairs_of_h():
    # at level 0, the rows whose lowest two vertices are u < v are the
    # common higher neighbours w > v of u and v, in H or not; the whole run
    # of u, every triangle whose lowest vertex is u, is several times more
    g = gnp(150, 0.5, 1)
    s = enumerate_triangles(g)
    cols = [CountingColumn(c) for c in (s.us, s.vs, s.ws)]
    store = TriangleStore(s.ids, *cols, s.e1, s.e2, s.e3)
    nbrs = {v: neighbors(g, v) for v in g.vertices()}
    record = full_trace(g, triangles=s).main_iteration()
    assert len(record.min_edges) > 10
    for edge in record.min_edges:
        h = record.vertices_on(edge)
        before = sum(c.rows for c in cols)
        level = store.inside(h)
        read = sum(c.rows for c in cols) - before
        bound = sum(sum(w > v for w in nbrs[u] & nbrs[v])
                    for u, v in combinations(sorted(h), 2))
        assert 0 < len(level) <= read <= bound, (edge, read, bound)
