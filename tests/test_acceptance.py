"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 6 carries a strict xfail: the published summary it restates is
internally inconsistent (see the g2 fixture's provenance notes), so the
faithful assertion fails and is expected to.
"""

from itertools import combinations
from math import comb

import pytest

from tricliq import (
    MODE_EARLY_STOP,
    MODE_EXHAUSTIVE,
    cliques_per_min_edge,
    complete,
    complete_multipartite,
    enumerate_maximal_cliques,
    enumerate_triangles,
    extract_max_clique,
    full_trace,
    is_clique,
    maghout_cliques,
    max_clique_exact,
    min_max,
    moon_moser,
    weight_vectors,
)

from conftest import corpus_graph
from graph_reference import neighbors
from trace_reference import assert_matches_reference, reference_trace
from triangles_reference import ring_sum

CORPUS_SIZE = 1000


def _report(num: str, ok: bool, detail: str = "") -> bool:
    tail = f" - {detail}" if detail else ""
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    return [corpus_graph(i) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    return [(g, extract_max_clique(g), max_clique_exact(g).omega)
            for g in corpus]


def test_criterion_1_moon_moser_clique_counts():
    for k in (1, 2, 3, 4):
        cliques = enumerate_maximal_cliques(moon_moser(k))
        assert len(cliques) == 3 ** k
        assert all(len(c) == k for c in cliques)
    for k, clauses in ((1, 3), (2, 6), (3, 9)):
        g = moon_moser(k)
        assert g.complement().m == clauses
        assert set(maghout_cliques(g)) == set(enumerate_maximal_cliques(g))
    _report("1", True, "3^k maximal cliques for k=1..4; Maghout agrees for k<=3")


def test_criterion_2_edge_and_triangle_formulas():
    for k, m in ((2, 9), (3, 27), (4, 54)):
        g = moon_moser(k)
        n = 3 * k
        assert g.m == m == n * (n - 3) // 2
    assert len(enumerate_triangles(moon_moser(4))) == 108
    t13 = complete_multipartite([3, 3, 3, 4])
    assert t13.m == 63
    assert len(enumerate_triangles(t13)) == 135
    _report("2", True, "edge formula for k=2..4; 108 and 135 triangle counts")


def test_criterion_3_g1_trace_and_seeded_extraction(g1):
    g = g1.graph
    trace = full_trace(g)
    assert trace.to_json_obj()[0]["weights"] == g1.expected["p0"]
    assert [(r.min_weight, r.max_weight) for r in trace.records] == [
        (2, 5), (2, 4), (3, 3)]
    assert trace.main_index == 2
    result = cliques_per_min_edge(g).by_edge[4]
    assert sorted(result.vertices) == [1, 2, 3, 4, 5]
    assert len(result.witness_triangles) == 10
    assert result.seed_edges == (4,)
    _report("3", True, "printed P0, MIN/MAX sequence, main index 2, "
                       "edge-4 extraction with 10 witnesses")


def test_criterion_4_g3_end_to_end(g3):
    g = g3.graph
    assert len(enumerate_triangles(g)) == 39
    trace = full_trace(g, mode=MODE_EARLY_STOP)
    last = trace.records[-1]
    assert last.min_weight == last.max_weight == 3
    assert len(last.surviving) == 10
    result = extract_max_clique(g)
    assert sorted(result.vertices) == [1, 2, 3, 8, 11]
    _report("4", True, "39 triangles, MIN=MAX=3 with 10 survivors, "
                       "clique {1,2,3,8,11}")


def test_criterion_5_g4(g4):
    g = g4.graph
    assert len(enumerate_triangles(g)) == 173
    published = [frozenset(c) for c in g4.expected["cliques"]]
    for clique in published:
        assert is_clique(g, clique)
    assert max_clique_exact(g).omega == 5
    distinct = set(cliques_per_min_edge(g).distinct)
    assert any(c in distinct for c in published)
    _report("5", True, "173 triangles, all four 5-cliques verified, omega 5, "
                       "per-edge output hits the published sets")


def test_criterion_6_g2_per_edge_variants_match_cycle_tables(g2):
    # the verifiable statement: every per-edge variant equals the subgraph its
    # printed cycle selection spans, and deduplication leaves three cliques
    per_edge = cliques_per_min_edge(g2.graph)
    expected = {int(e): vs for e, vs in g2.expected["variant_subgraphs"].items()}
    assert {e: sorted(r.vertices) for e, r in per_edge.by_edge.items()} == expected
    assert [sorted(s) for s in per_edge.distinct] == g2.expected["distinct_cliques"]
    _report("6a", True, "per-edge variants match the printed cycle selections "
                        "(3 distinct cliques)")


@pytest.mark.xfail(
    strict=True,
    reason="the published summary's fourth set {1,3,4,6,7} contains the "
           "non-adjacent pair (4,6); the printed cycle table admits only "
           "three distinct cliques, so the summary equality cannot hold",
)
def test_criterion_6_published_summary_as_stated(g2):
    per_edge = cliques_per_min_edge(g2.graph)
    published = {frozenset(c) for c in g2.expected["published_distinct_cliques"]}
    _report("6b", set(per_edge.distinct) == published,
            "as stated: dedup set equals the published four-clique summary "
            "(known erratum, see fixture provenance)")
    assert set(per_edge.distinct) == published


def test_criterion_7_turan13_initial_weights(turan13):
    g = turan13.graph
    w, _ = weight_vectors(g, enumerate_triangles(g))
    assert min_max(w) == (6, 7)
    part = lambda v: (v - 1) // 3 if v <= 9 else 3
    for e in range(1, g.m + 1):
        u, v = g.endpoints(e)
        if part(u) == 3 or part(v) == 3:
            assert w[e - 1] == 6
        else:
            assert w[e - 1] == 7
    _report("7", True, "MIN=6 MAX=7; small-small edges weigh 7, "
                       "small-large edges 6")


def test_criterion_8a_soundness(corpus_runs):
    violations = [g for g, result, _ in corpus_runs
                  if not (result.is_verified_clique and is_clique(g, result.vertices))]
    ok = _report("8a", not violations,
                 f"heuristic output is a clique on all {len(corpus_runs)} graphs")
    assert ok


def test_criterion_8b_never_exceeds_omega(corpus_runs):
    violations = [g for g, result, omega in corpus_runs if result.size > omega]
    ok = _report("8b", not violations,
                 f"heuristic size <= omega on all {len(corpus_runs)} graphs")
    assert ok


def test_criterion_8c_agreement_rate_report(corpus_runs):
    hits = sum(result.size == omega for _, result, omega in corpus_runs)
    by_bucket: dict[tuple[int, float], list[int]] = {}
    for g, result, omega in corpus_runs:
        key = (g.n, round(g.m / comb(g.n, 2), 1) if g.n > 1 else 0.0)
        by_bucket.setdefault(key, []).append(result.size == omega)
    rate = hits / len(corpus_runs)
    worst = min(
        (sum(v) / len(v), k) for k, v in by_bucket.items() if len(v) >= 5)
    _report("8c", True,
            f"agreement rate heuristic==omega: {rate:.4f} "
            f"({hits}/{len(corpus_runs)}); worst bucket {worst[1]}: {worst[0]:.3f} "
            "(measured, no threshold asserted)")


def test_criterion_8d_differential_weights_agree(corpus):
    # two independent computations: the bucket-queue engine, which keeps
    # weights by decrements, against a from-scratch recount per iteration
    for g in corpus:
        for mode in (MODE_EXHAUSTIVE, MODE_EARLY_STOP):
            assert_matches_reference(g, full_trace(g, mode=mode),
                                     reference_trace(g, mode))
    _report("8d", True,
            f"engine and from-scratch records, weights and survivors agree "
            f"on all {len(corpus)} graphs in both modes")


def test_criterion_8e_membership_count_inside_oracle_cliques(corpus):
    checked = 0
    for g in corpus:
        for clique in enumerate_maximal_cliques(g):
            size = len(clique)
            for u, v in combinations(sorted(clique), 2):
                assert len(neighbors(g, u) & neighbors(g, v) & clique) == size - 2
            checked += 1
    _report("8e", True,
            f"every internal edge of {checked} oracle cliques lies in "
            "exactly L-2 internal triangles")


def test_criterion_8f_ring_sums():
    k4 = enumerate_triangles(complete(4))
    assert ring_sum(t.edges for t in k4) == frozenset()
    k5 = enumerate_triangles(complete(5))
    assert ring_sum(t.edges for t in k5) == frozenset(range(1, 11))
    _report("8f", True, "K4 triangles cancel over GF(2); K5's sum is the "
                        "full 10-edge set")
