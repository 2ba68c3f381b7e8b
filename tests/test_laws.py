"""Laws the exact oracles obey, checked one run against another with no
reference: metamorphic relations (Chen, Cheung & Yiu, "Metamorphic testing",
1998) that reach sizes no reference search can.

- A disjoint union G ⊔ G′ has the maximal cliques of both parts, so the
  count adds, and ω is the larger of the two.
- The join of G with K_3 adds the three new vertices to each maximal clique
  of G, so the count stays and ω grows by 3.
- A relabelling of the vertices with a shuffle of the edge order is the same
  graph, so the count and ω stay.
- The join of two edgeless graphs of a and b vertices, K_{a,b}, has its
  a·b edges as its maximal cliques, and ω = 2.
"""

import random

from hypothesis import given, settings, strategies as st

from tricliq import (Graph, complete_multipartite, enumerate_maximal_cliques,
                     max_clique_exact)

from conftest import CORPUS_SLICE, corpus_graph, planted_sparse
from test_oracle import graphs


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on 1..g.n beside h on g.n + 1..g.n + h.n."""
    return Graph(g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges])


def join_k3(g: Graph) -> Graph:
    """g with three more vertices, joined to each other and to all of g."""
    n = g.n + 3
    return Graph(n, list(g.edges) + [(u, v) for v in range(g.n + 1, n + 1)
                                     for u in range(1, v)])


def relabel_and_shuffle(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation and its edges
    listed in a random order, each pair either way round."""
    label = list(range(1, g.n + 1))
    rng.shuffle(label)
    edges = [(label[u - 1], label[v - 1]) for u, v in g.edges]
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    rng.shuffle(edges)
    return Graph(g.n, edges)


def count_and_omega(g: Graph) -> tuple[int, int]:
    return len(enumerate_maximal_cliques(g)), max_clique_exact(g).omega


def assert_laws(g: Graph, h: Graph, seed: int) -> None:
    count, omega = count_and_omega(g)
    h_count, h_omega = count_and_omega(h)
    assert count_and_omega(disjoint_union(g, h)) == (count + h_count, max(omega, h_omega))
    assert count_and_omega(join_k3(g)) == (count, omega + 3)
    assert count_and_omega(relabel_and_shuffle(g, random.Random(seed))) == (count, omega)


def test_laws_on_the_corpus_slice():
    # each slice graph beside the next one, so that sizes and densities mix
    for i, j in zip(CORPUS_SLICE, CORPUS_SLICE[1:] + CORPUS_SLICE[:1]):
        assert_laws(corpus_graph(i), corpus_graph(j), seed=i)


@settings(max_examples=150, deadline=None)
@given(graphs(14), graphs(14), st.integers(0, 2**32 - 1))
def test_laws_on_any_graphs(g, h, seed):
    assert_laws(g, h, seed)


def test_counts_add_over_a_union_of_two_large_sparse_graphs():
    # 20000 vertices at degree 10, far past any reference search: each
    # part's count is found on its own, and the union's must be their sum
    g = planted_sparse(10000, 10, [6, 8], seed=1)
    h = planted_sparse(10000, 10, [7, 9], seed=2)
    counts = len(enumerate_maximal_cliques(g)), len(enumerate_maximal_cliques(h))
    assert len(enumerate_maximal_cliques(disjoint_union(g, h))) == sum(counts)


def test_a_large_complete_bipartite_graph_has_its_edges_as_cliques():
    # K_{50000,2}: every low label is a leaf beside the two hubs 50001 and
    # 50002, and no edge has a common neighbour.  The triangle pass tests
    # each edge from its hub end, scanning the leaf's two neighbours; from
    # the leaf end it would scan a hub's 50000, about 5·10⁹ probes in all
    g = complete_multipartite([50000, 2])
    assert len(enumerate_maximal_cliques(g)) == g.m == 100000
    assert max_clique_exact(g).omega == 2
