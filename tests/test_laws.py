"""Laws checked one run against another with no reference: metamorphic
relations (Chen, Cheung & Yiu, "Metamorphic testing", 1998) that reach sizes
no reference search can.

The exact oracles:

- A disjoint union G ⊔ G′ has the maximal cliques of both parts, so the
  count adds, and ω is the larger of the two.
- The join of G with K_3 adds the three new vertices to each maximal clique
  of G, so the count stays and ω grows by 3.
- A relabelling of the vertices with a shuffle of the edge order is the same
  graph, so the count and ω stay.
- The join of two edgeless graphs of a and b vertices, K_{a,b}, has its
  a·b edges as its maximal cliques, and ω = 2.

The pruning trace, which follows the graph and not its edge ids:

- A relabelling with an edge shuffle keeps the sequence of (MIN, MAX,
  removed count, number of minimum edges), and each edge keeps its truss
  number.
- An edge shuffle with the labels fixed keeps the triangle ids, which
  follow vertex triples, so every record's removed ids in the log stay, and
  its minimum edges map through the shuffle.
- A K_k planted apart from G, with k > max MIN + 2 of G's trace, is peeled
  alone in the last iteration, at the largest MIN, so extraction returns
  exactly that K_k at depth 0, under any labels.

The CLI: one graph written as an edge list and as DIMACS gives the same
stdout from every command.

Not a law: ``clique``'s vertex set under an edge shuffle.  The seed is the
lowest-numbered minimum edge, so the answer can follow the input's order.
"""

import random

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from tricliq import (FIXTURE_NAMES, MODE_EARLY_STOP, MODE_EXHAUSTIVE, Graph,
                     complete, complete_multipartite, enumerate_maximal_cliques,
                     extract_max_clique, format_dimacs, format_edge_list,
                     full_trace, load_fixture, max_clique_exact)
from tricliq.cli import main

from conftest import CORPUS_SLICE, corpus_graph, planted_sparse
from test_oracle import graphs
from test_triangles import chung_lu
from trace_reference import logged_removals
from truss_reference import truss_numbers

MODES = (MODE_EXHAUSTIVE, MODE_EARLY_STOP)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on 1..g.n beside h on g.n + 1..g.n + h.n."""
    return Graph(g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges])


def join_k3(g: Graph) -> Graph:
    """g with three more vertices, joined to each other and to all of g."""
    n = g.n + 3
    return Graph(n, list(g.edges) + [(u, v) for v in range(g.n + 1, n + 1)
                                     for u in range(1, v)])


def shuffled(g: Graph, rng: random.Random, relabel: bool = True
             ) -> tuple[Graph, list[int]]:
    """g with its edges listed in a random order, each pair either way
    round, and, if ``relabel``, its vertices renamed by a random
    permutation; and that renaming, v to ``label[v - 1]``."""
    label = list(range(1, g.n + 1))
    if relabel:
        rng.shuffle(label)
    edges = [(label[u - 1], label[v - 1]) for u, v in g.edges]
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    rng.shuffle(edges)
    return Graph(g.n, edges), label


def edge_map(g: Graph, h: Graph, label: list[int]) -> dict[int, int]:
    """Each edge id of g to the id of its renamed edge in h."""
    return {e: h.edge_id(label[u - 1], label[v - 1])
            for e, (u, v) in enumerate(g.edges, 1)}


def count_and_omega(g: Graph) -> tuple[int, int]:
    return len(enumerate_maximal_cliques(g)), max_clique_exact(g).omega


def assert_laws(g: Graph, h: Graph, seed: int) -> None:
    count, omega = count_and_omega(g)
    h_count, h_omega = count_and_omega(h)
    assert count_and_omega(disjoint_union(g, h)) == (count + h_count, max(omega, h_omega))
    assert count_and_omega(join_k3(g)) == (count, omega + 3)
    assert count_and_omega(shuffled(g, random.Random(seed))[0]) == (count, omega)


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


def steps(trace) -> list[tuple[int, int, int, int]]:
    return [(r.min_weight, r.max_weight, r.removed_count, len(r.min_edges))
            for r in trace.records]


def assert_trace_laws(g: Graph, seed: int) -> None:
    rng = random.Random(seed)
    h, label = shuffled(g, rng)
    for mode in MODES:
        assert steps(full_trace(h, mode)) == steps(full_trace(g, mode))
    truss, moved = truss_numbers(g), truss_numbers(h)
    assert {e: moved[f] for e, f in edge_map(g, h, label).items()} == truss

    h, label = shuffled(g, rng, relabel=False)
    to_h = edge_map(g, h, label)
    trace, other = full_trace(g), full_trace(h)
    assert logged_removals(other) == logged_removals(trace)
    assert [r.min_edges for r in other.records] == [
        tuple(sorted(map(to_h.get, r.min_edges))) for r in trace.records]


def assert_planted_clique_returns(g: Graph, seed: int, extra: int = 1) -> None:
    # K_k on g.n + 1..g.n + k, with k one or more past max MIN + 2 of g
    k = max((r.min_weight for r in full_trace(g).records), default=0) + 2 + extra
    h, label = shuffled(disjoint_union(g, complete(k)), random.Random(seed))
    planted = {label[v - 1] for v in range(g.n + 1, g.n + k + 1)}
    for mode in MODES:
        result = extract_max_clique(h, mode)
        assert result.vertices == planted and result.recursion_depth == 0
        assert result.is_verified_clique
        assert len(result.witness_triangles) == k * (k - 1) * (k - 2) // 6


def test_trace_laws_on_the_corpus_slice():
    for i in CORPUS_SLICE:
        assert_trace_laws(corpus_graph(i), seed=i)
        assert_planted_clique_returns(corpus_graph(i), seed=i, extra=1 + i % 3)


@settings(max_examples=150, deadline=None)
@given(graphs(14), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_trace_laws_on_any_graphs(g, seed, extra):
    assert_trace_laws(g, seed)
    assert_planted_clique_returns(g, seed, extra)


def test_a_planted_clique_comes_back_from_a_large_skewed_graph():
    # Chung-Lu n = 20000 at mean degree 10 has max MIN 34, so K_37 is the
    # smallest clique the law covers
    assert_planted_clique_returns(chung_lu(20000, 10, 2.2, seed=1), seed=1)


CLI_RUNS = (
    ("triangles",), ("triangles", "--json"),
    ("trace",), ("trace", "--json"), ("trace", "--mode", "early-stop"),
    ("clique",), ("clique", "--json"),
    ("clique", "--all-min-edges"), ("clique", "--all-min-edges", "--json"),
    ("oracle",), ("oracle", "--json"), ("oracle", "--method", "maghout"),
    ("validate",), ("validate", "--json"),
)


def stdout_of(argv: list[str]) -> tuple[int, str]:
    """main's exit code and stdout, without ``validate``'s timings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "validate" and "--json" in argv:
        text = json.dumps({k: v for k, v in json.loads(text).items()
                           if not k.startswith("seconds_")})
    elif argv[0] == "validate":
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("seconds_"))
    return code, text


def assert_formats_agree(g: Graph, tmp_path) -> None:
    edges, dimacs = tmp_path / "g.edges", tmp_path / "g.dimacs"
    edges.write_text(format_edge_list(g))
    dimacs.write_text(format_dimacs(g))
    for cmd, *flags in CLI_RUNS:
        got = stdout_of([cmd, str(edges), *flags])
        assert got == stdout_of([cmd, str(dimacs), *flags]), (cmd, *flags)
        assert got[0] == 0 and got[1], (cmd, *flags)


def test_an_edge_list_and_dimacs_give_the_same_stdout(tmp_path):
    for name in FIXTURE_NAMES:
        assert_formats_agree(load_fixture(name).graph, tmp_path)
    for i in CORPUS_SLICE:
        assert_formats_agree(corpus_graph(i), tmp_path)
