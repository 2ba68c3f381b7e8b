"""Validation of the bundled reference graphs against their source tables.

The g1 and g2 graphs were reconstructed from printed triangle tables; the
tests here redo that reconstruction with an independent routine and check
the shipped edge files against it.
"""

from itertools import combinations

import pytest

from tricliq import (
    FIXTURE_NAMES,
    enumerate_triangles,
    load_fixture,
    moon_moser,
)
from tricliq.fixtures import FixtureMismatchError, UnknownFixtureError

from graph_reference import neighbors


def reconstruct_edge_endpoints(table, m):
    """Endpoints of edge e = the vertex pair shared by all cycles naming e."""
    candidates = {}
    for edge_ids, vertex_triple in table:
        pairs = {frozenset(p) for p in combinations(vertex_triple, 2)}
        for e in edge_ids:
            candidates[e] = candidates.get(e, pairs) & pairs
    out = []
    for e in range(1, m + 1):
        assert len(candidates[e]) == 1, f"edge {e} underdetermined"
        out.append(tuple(sorted(next(iter(candidates[e])))))
    return out


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_reconstructed_edge_map_matches_shipped_file(name):
    fx = load_fixture(name)
    table = fx.expected["triangles"]
    rebuilt = reconstruct_edge_endpoints(table, fx.expected["m"])
    assert list(fx.graph.edges) == rebuilt


@pytest.mark.parametrize("name", ["g1", "g2", "g3"])
def test_enumeration_matches_printed_cycle_tables(name):
    # both the vertex triples and the edge-id triples, in printed order
    fx = load_fixture(name)
    tris = enumerate_triangles(fx.graph)
    table = fx.expected["triangles"]
    assert [list(t.vertices) for t in tris] == [sorted(v) for _, v in table]
    assert [list(t.edges) for t in tris] == [sorted(e) for e, _ in table]


@pytest.mark.parametrize("name", ["g3", "g4"])
def test_adjacency_tables_transcribed_symmetrically(name):
    fx = load_fixture(name)
    adjacency = {int(v): set(ns) for v, ns in fx.expected["adjacency"].items()}
    for u, ns in adjacency.items():
        for v in ns:
            assert u in adjacency[v], f"{name}: {u}->{v} not mirrored"
    # and the graph file is exactly that adjacency
    for u in fx.graph.vertices():
        assert neighbors(fx.graph, u) == frozenset(adjacency[u])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_counts(name):
    fx = load_fixture(name)
    assert fx.graph.n == fx.expected["n"]
    assert fx.graph.m == fx.expected["m"]
    assert len(enumerate_triangles(fx.graph)) == fx.expected["triangle_count"]


def test_moon_moser_12_fixture_is_the_generator_output(moon_moser_12):
    assert moon_moser_12.graph == moon_moser(4)


def test_unknown_name_rejected():
    with pytest.raises(UnknownFixtureError):
        load_fixture("g9")


def test_g2_fixture_documents_published_discrepancy(g2):
    # the sidecar keeps both the published four-set summary and the
    # three-set consequence of the cycle tables, plus the non-clique witness
    assert g2.expected["known_nonclique"] == [1, 3, 4, 6, 7]
    published = [tuple(c) for c in g2.expected["published_distinct_cliques"]]
    actual = [tuple(c) for c in g2.expected["distinct_cliques"]]
    assert set(actual) < set(published)
    assert (1, 3, 4, 6, 7) in set(published) - set(actual)


def test_sidecar_count_mismatch_raises(monkeypatch):
    import json
    import tricliq.fixtures as fixtures

    read = fixtures._read

    def skewed(name, suffix):
        text = read(name, suffix)
        if suffix != ".expected.json":
            return text
        expected = json.loads(text)
        expected["m"] += 1
        return json.dumps(expected)

    monkeypatch.setattr(fixtures, "_read", skewed)
    with pytest.raises(FixtureMismatchError) as info:
        load_fixture("g3")
    message = str(info.value)
    assert "'g3'" in message
    assert "n=12, m=38" in message and "n=12, m=39" in message
