import math
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tricliq import (
    BudgetExceededError,
    Graph,
    complete,
    complete_multipartite,
    enumerate_maximal_cliques,
    maghout_cliques,
    max_clique_exact,
    moon_moser,
    oracle,
)

from conftest import corpus_graph, gnp, planted_sparse
from graph_reference import neighbors
from oracle_reference import (
    absorb_masks,
    reference_bron_kerbosch,
    reference_maghout,
    reference_max_clique,
)


class TestEnumeration:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_moon_moser_counts(self, k):
        cliques = enumerate_maximal_cliques(moon_moser(k))
        assert len(cliques) == 3 ** k
        assert all(len(c) == k for c in cliques)

    def test_five_cycle(self):
        c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        cliques = enumerate_maximal_cliques(c5)
        assert [sorted(c) for c in cliques] == [
            [1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]

    def test_g3_count(self, g3):
        assert len(enumerate_maximal_cliques(g3.graph)) == \
            g3.expected["maximal_clique_count"]

    def test_each_result_is_maximal(self, g3):
        g = g3.graph
        for c in enumerate_maximal_cliques(g):
            for v in set(g.vertices()) - c:
                assert not c <= neighbors(g, v)

    def test_deterministic_order(self, g4):
        assert enumerate_maximal_cliques(g4.graph) == \
            enumerate_maximal_cliques(g4.graph)

    def test_budget(self, g4):
        with pytest.raises(BudgetExceededError):
            enumerate_maximal_cliques(g4.graph, budget=10)

    def test_a_large_cycle_costs_memory_linear_in_the_graph(self):
        # C_20000: each branch's bitsets span the branch vertex's two
        # neighbours; one n-bit neighbour mask per vertex peaked at 33.3 MiB
        g = Graph(20000, [(v, v % 20000 + 1) for v in range(1, 20001)])
        tracemalloc.start()
        try:
            cliques = enumerate_maximal_cliques(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cliques) == 20000 and all(len(c) == 2 for c in cliques)
        assert peak <= 16 << 20


class TestMaxClique:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_complete(self, n):
        assert max_clique_exact(complete(n)).omega == n

    def test_fixtures(self, g1, g2, g3, g4, turan13):
        for fx in (g1, g2, g3, g4, turan13):
            assert max_clique_exact(fx.graph).omega == fx.expected["omega"], fx.name

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_moon_moser(self, k):
        assert max_clique_exact(moon_moser(k)).omega == k

    def test_budget_distinguishable(self, g4):
        with pytest.raises(BudgetExceededError) as err:
            max_clique_exact(g4.graph, budget=3)
        assert err.value.budget == 3

    def test_reports_nodes(self, g3):
        assert max_clique_exact(g3.graph).nodes_visited > 0

    def test_a_large_cycle_costs_memory_linear_in_the_graph(self):
        # C_20000: the root's branch on v spans v's later neighbours; one
        # n-bit neighbour mask per vertex peaked at 29.6 MiB.  The root
        # visits 1, the branch on 1 finds an edge (2 more) and the branches
        # on the next 19997 vertices are cut at their first bound check
        g = Graph(20000, [(v, v % 20000 + 1) for v in range(1, 20001)])
        tracemalloc.start()
        try:
            result = max_clique_exact(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.omega, result.nodes_visited) == (2, 20000)
        assert peak <= 8 << 20


@st.composite
def graphs(draw, max_n):
    """Any simple graph on 1..max_n vertices, each pair an edge or not."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pq for pq, keep in zip(pairs, present) if keep])


class TestMaghout:
    def test_moon_moser_3_expansion(self):
        g = moon_moser(3)
        assert g.complement().m == 9  # nine two-literal clauses
        cliques = maghout_cliques(g)
        assert len(cliques) == 27
        assert frozenset({3, 6, 9}) in cliques

    @pytest.mark.parametrize("k,clauses", [(1, 3), (2, 6), (3, 9), (4, 12),
                                           (5, 15), (6, 18), (7, 21)])
    def test_clause_counts(self, k, clauses):
        # one triangle of clauses per triad, so 3^k cliques of size k
        g = moon_moser(k)
        assert g.complement().m == clauses
        cliques = maghout_cliques(g)
        assert len(cliques) == 3 ** k
        assert all(len(c) == k for c in cliques)
        assert cliques == enumerate_maximal_cliques(g)

    def test_complete_graph_trivial_product(self):
        assert maghout_cliques(complete(4)) == (frozenset({1, 2, 3, 4}),)

    def test_five_cycle(self):
        c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert [sorted(c) for c in maghout_cliques(c5)] == [
            [1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]

    def test_clause_budget(self, g4):
        with pytest.raises(BudgetExceededError):
            maghout_cliques(g4.graph)  # complement is far above 30 clauses

    def test_refusing_a_large_sparse_graph_costs_little_memory(self):
        # the cycle C_3000 has about 4.5M complement clauses; refusing them
        # must not list them first
        g = Graph(3000, [(v, v % 3000 + 1) for v in range(1, 3001)])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                maghout_cliques(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_clause_budget_boundary_on_a_split_complement(self):
        # the complement is one clique per part, and the budget counts the
        # clauses of every component
        at_budget = complete_multipartite([5, 5, 5])
        over_budget = complete_multipartite([2, 5, 5, 5])
        assert at_budget.complement().m == 30
        assert over_budget.complement().m == 31
        assert len(maghout_cliques(at_budget)) == 5 * 5 * 5
        with pytest.raises(BudgetExceededError) as err:
            maghout_cliques(over_budget)
        assert err.value.budget == 30
        assert len(maghout_cliques(over_budget, clause_budget=31)) == 2 * 5 * 5 * 5

    @pytest.mark.parametrize("parts", [[3, 4, 5, 3, 4], [2, 3, 4, 4, 3, 2, 2],
                                       [2, 3, 4]])
    def test_complete_multipartite_family_counts(self, parts):
        # one clique per choice of a vertex from each part
        g = complete_multipartite(parts)
        cliques = maghout_cliques(g)
        assert len(cliques) == math.prod(parts)
        assert all(len(c) == len(parts) for c in cliques)
        assert cliques == enumerate_maximal_cliques(g)

    def test_agrees_with_enumeration_on_fixtures(self, g1, g2, g3):
        for fx in (g1, g2, g3):
            mag = maghout_cliques(fx.graph, clause_budget=60)
            assert set(mag) == set(enumerate_maximal_cliques(fx.graph)), fx.name


@st.composite
def few_non_edges(draw, max_n, max_non_edges):
    """A graph on 1..max_n vertices missing at most max_non_edges pairs."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    missing = set()
    if pairs:
        missing = draw(st.sets(st.sampled_from(pairs), max_size=max_non_edges))
    return Graph(n, [pq for pq in pairs if pq not in missing])


@settings(max_examples=200, deadline=None)
@given(few_non_edges(12, 14))
def test_antichain_absorption_matches_full_absorption(g):
    assert maghout_cliques(g) == reference_maghout(g)


@st.composite
def joins(draw, max_part):
    """The join of 2-3 graphs on 1..max_part vertices each: every pair
    across parts is an edge, so the complement is the disjoint union of the
    parts' complements and has components of more than one edge."""
    parts = draw(st.lists(graphs(max_part), min_size=2, max_size=3))
    part_of: list[int] = []
    inner = set()
    for i, h in enumerate(parts):
        offset = len(part_of)
        part_of += [i] * h.n
        inner |= {(u + offset, v + offset) for u, v in h.edges}
    n = len(part_of)
    return Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2)
                     if part_of[u - 1] != part_of[v - 1] or (u, v) in inner])


@settings(max_examples=200, deadline=None)
@given(joins(5))
def test_expansion_per_component_matches_full_absorption(g):
    assert maghout_cliques(g) == reference_maghout(g)


@st.composite
def sparse_graphs(draw, max_n):
    """A sparse graph: at most 2n edges on 1..n, for n up to max_n."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = set()
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    return Graph(n, sorted(edges))


def assert_enumeration_matches_visit_reference(g: Graph) -> None:
    # same search tree: the same cliques in the same order, and the budget
    # trips at exactly the node where the reference's does
    cliques, visited = reference_bron_kerbosch(g)
    assert enumerate_maximal_cliques(g, budget=visited) == cliques
    with pytest.raises(BudgetExceededError):
        reference_bron_kerbosch(g, budget=visited - 1)
    with pytest.raises(BudgetExceededError):
        enumerate_maximal_cliques(g, budget=visited - 1)


def test_enumeration_matches_visit_reference_on_the_corpus_slice():
    # every seventh graph: each size 5..24 and each density 0.3/0.5/0.7
    for i in range(0, 1000, 7):
        assert_enumeration_matches_visit_reference(corpus_graph(i))


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(16), joins(5), sparse_graphs(40)), st.data())
def test_enumeration_matches_visit_reference(g, data):
    # the same graph with its edges listed in any order, so that a vertex's
    # neighbours come in no particular order either
    g = Graph(g.n, data.draw(st.permutations(g.edges)))
    assert_enumeration_matches_visit_reference(g)


SETTLED13 = Graph(13, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                    (5, 6), (5, 7), (5, 8), (5, 9), (10, 11), (11, 12)])


def test_triangle_free_branches_are_settled_in_one_step():
    # K_4 on 1..4, the star 5-6..9, the path 10-11-12 and the isolated 13.
    # The root's pivot is the star's centre 5 (degree 4), so the root
    # branches on 1..5 and 10..13.  Bron-Kerbosch searches the branches on
    # 1..4; each of the others has no edge inside N(v) and is settled in one
    # step: 5 with four leaves, 10 and 11 with one each (11's other
    # neighbour 10 is already searched), 12 with P empty and X = {11}, and
    # 13 with the leaf {13}.  Every budget below the visit count trips
    # where the reference's does: 0 at the root, and inside settled
    # branches too
    g = SETTLED13
    cliques, visited = reference_bron_kerbosch(g)
    assert [sorted(c) for c in cliques] == [
        [1, 2, 3, 4], [5, 6], [5, 7], [5, 8], [5, 9], [10, 11], [11, 12], [13]]
    # the root, 4 + 1 + 1 + 1 on the K_4, 1 + 4 on 5, 2 on 10, 2 on 11,
    # 1 on 12 and 1 on 13
    assert visited == 19
    assert enumerate_maximal_cliques(g, budget=visited) == cliques
    for budget in range(visited):
        with pytest.raises(BudgetExceededError):
            reference_bron_kerbosch(g, budget=budget)
        with pytest.raises(BudgetExceededError):
            enumerate_maximal_cliques(g, budget=budget)


def count_mask_builds(monkeypatch) -> list[list[int]]:
    """Wrap ``_local_masks`` so that each call records the branch's labels."""
    calls: list[list[int]] = []
    real = oracle._local_masks

    def counting(labels, nbrs, power):
        calls.append(list(labels))
        return real(labels, nbrs, power)

    monkeypatch.setattr(oracle, "_local_masks", counting)
    return calls


def flagged_root_branches(g: Graph) -> list[int]:
    """The root branches of Bron-Kerbosch whose vertex is on a triangle,
    read off ``g.edges``: the vertices outside the neighbourhood of the
    pivot (highest degree, lowest label) that have an edge inside theirs."""
    nbr = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    on_triangle = {v for u, w in g.edges for v in (u, w) if nbr[u] & nbr[w]}
    pivot = max(g.vertices(), key=lambda v: (len(nbr[v]), -v))
    return [v for v in g.vertices() if v not in nbr[pivot] and v in on_triangle]


def test_only_branches_of_vertices_on_a_triangle_build_bitsets(monkeypatch):
    # of the root branches 1..5 and 10..13, only those on the K_4 are on a
    # triangle
    g = SETTLED13
    calls = count_mask_builds(monkeypatch)
    assert enumerate_maximal_cliques(g) == reference_bron_kerbosch(g)[0]
    assert len(calls) == 4 == len(flagged_root_branches(g))


def test_a_sparse_graph_builds_bitsets_for_its_triangles_alone(monkeypatch):
    # degree 10 with cliques of 6 and 8 planted, as the bench's validate
    # graph: most of the root branches are on no triangle
    g = planted_sparse(3000, 10, [6, 8], seed=1)
    flagged = flagged_root_branches(g)
    calls = count_mask_builds(monkeypatch)
    cliques = enumerate_maximal_cliques(g)
    assert len(calls) == len(flagged)
    assert 0 < len(flagged) < g.n // 4
    assert max(map(len, cliques)) == 8


def test_a_triangle_on_the_pivots_neighbours_flags_its_third_vertex(monkeypatch):
    # 1 is the pivot (degree 5), so the root skips its neighbours 2..6 and
    # branches on 1 and 7.  7's one triangle, (2, 3, 7), has its other two
    # vertices in N(1): the pass must still flag 7, or the branch on 7
    # would be settled as the two edges {2, 7} and {3, 7}
    g = Graph(7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 7), (3, 7)])
    calls = count_mask_builds(monkeypatch)
    assert flagged_root_branches(g) == [1, 7]
    assert_enumeration_matches_visit_reference(g)
    assert [2, 3] in calls
    assert {2, 3, 7} in enumerate_maximal_cliques(g)


def assert_search_matches_list_reference(g: Graph) -> None:
    # same search tree: same clique, same size, same node count, and the
    # budget trips at exactly the same node
    ref = reference_max_clique(g)
    got = max_clique_exact(g)
    assert (got.vertices, got.omega, got.nodes_visited) == \
        (ref.vertices, ref.omega, ref.nodes_visited)
    assert max_clique_exact(g, budget=ref.nodes_visited) == got
    with pytest.raises(BudgetExceededError):
        reference_max_clique(g, budget=ref.nodes_visited - 1)
    with pytest.raises(BudgetExceededError):
        max_clique_exact(g, budget=ref.nodes_visited - 1)


def test_bitset_search_matches_list_reference_on_the_corpus_slice():
    # every seventh graph: each size 5..24 and each density 0.3/0.5/0.7
    for i in range(0, 1000, 7):
        assert_search_matches_list_reference(corpus_graph(i))


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(16), joins(5), sparse_graphs(40)), st.data())
def test_bitset_search_matches_list_reference(g, data):
    # the edges in any order, so that neighbour lists come unsorted
    g = Graph(g.n, data.draw(st.permutations(g.edges)))
    assert_search_matches_list_reference(g)


def test_a_branch_cut_at_its_first_bound_still_counts_its_visit():
    # K_3 on 1..3 beside the edges 4-5 and 6-7: after the branch on 1 finds
    # {1, 2, 3} (visits 2-4), the branches on 2, 3 and 4 have too few later
    # neighbours to beat it and build nothing, but each is visits 5, 6, 7
    g = Graph(7, [(1, 2), (1, 3), (2, 3), (4, 5), (6, 7)])
    assert max_clique_exact(g) == reference_max_clique(g)
    assert max_clique_exact(g).nodes_visited == 7
    for budget in (4, 5, 6):
        with pytest.raises(BudgetExceededError):
            reference_max_clique(g, budget=budget)
        with pytest.raises(BudgetExceededError):
            max_clique_exact(g, budget=budget)
    assert max_clique_exact(g, budget=7).vertices == {1, 2, 3}


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


# a term is a vertex bitmask, bit v set iff vertex v is in it: here a
# non-empty subset of vertices 1..8
terms_lists = st.lists(st.integers(1, 255).map(lambda m: m << 1), max_size=12)


class TestAbsorption:
    def test_absorbs_supersets(self):
        terms = [mask({1, 2}), mask({1, 2, 3}), mask({4})]
        assert absorb_masks(terms) == [mask({4}), mask({1, 2})]

    @given(terms_lists)
    def test_idempotent(self, terms):
        reduced = absorb_masks(terms)
        assert absorb_masks(reduced) == reduced

    @given(terms_lists)
    def test_no_term_contains_another(self, terms):
        reduced = absorb_masks(terms)
        for a in reduced:
            for b in reduced:
                assert a == b or a & b != a


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10**6))
def test_oracle_cross_agreement(n, p, seed):
    # the two independent exact routes must produce identical clique sets
    g = gnp(n, p, seed)
    bk = enumerate_maximal_cliques(g)
    mag = maghout_cliques(g, clause_budget=60)
    assert set(bk) == set(mag)
    assert max_clique_exact(g).omega == max(len(c) for c in bk)
