"""Recursive extraction over relabelled induced subgraphs: the reference the
library's extraction loop is held to.

Each level builds the subgraph induced by H, relabelled 1..k in ascending
parent order (edges numbered in lexicographic pair order), enumerates its
triangles afresh, runs the whole pipeline on it, and maps the result back
through the relabelling.  If H spans every vertex of the current level and
is not complete, the vertex missing the most internal edges is dropped
before recursing.  Witnesses come from a scan of every triangle of the
input graph.  Nothing here shares a code path with the loop beyond
``enumerate_triangles`` and ``full_trace`` on a whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from tricliq import (
    EmptyVertexSetError,
    Graph,
    MODE_EXHAUSTIVE,
    enumerate_triangles,
    full_trace,
    is_clique,
)
from tricliq.extraction import NoTrianglesThroughEdgeError

from graph_reference import neighbors


@dataclass(frozen=True)
class ReferenceResult:
    vertices: frozenset[int]
    witness_triangles: tuple[int, ...]
    seed_edges: tuple[int, ...]
    is_verified_clique: bool
    recursion_depth: int
    degenerate: bool
    fallback_used: bool


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph plus the index maps back to its parent.

    ``parent_vertices[i-1]`` is the parent label of subgraph vertex ``i``;
    ``parent_edge_ids[j-1]`` the parent label of subgraph edge ``j``.
    """

    graph: Graph
    parent_vertices: tuple[int, ...]
    sub_vertex_of: dict[int, int]
    parent_edge_ids: tuple[int, ...]

    def parent_vertex(self, sub_v: int) -> int:
        return self.parent_vertices[sub_v - 1]

    def parent_edge(self, sub_e: int) -> int:
        return self.parent_edge_ids[sub_e - 1]


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> InducedSubgraph:
    """Subgraph on ``vertices`` relabelled 1..k in ascending parent order."""
    vs = sorted(set(vertices))
    if not vs:
        raise EmptyVertexSetError("induced subgraph needs at least one vertex")
    for v in vs:
        g._check_vertex(v)
    sub_of = {p: i + 1 for i, p in enumerate(vs)}
    pairs = []
    parent_edges = []
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if g.has_edge(u, v):
                pairs.append((sub_of[u], sub_of[v]))
                parent_edges.append(g.edge_id(u, v))
    return InducedSubgraph(
        graph=Graph(len(vs), pairs),
        parent_vertices=tuple(vs),
        sub_vertex_of=sub_of,
        parent_edge_ids=tuple(parent_edges),
    )


def most_deficient_vertex(g: Graph, vertices: frozenset[int]) -> int:
    """Vertex with the fewest neighbors inside ``vertices`` (lowest label on ties)."""
    return min(sorted(vertices), key=lambda v: len(neighbors(g, v) & vertices))


def _span(g, triangles, surviving, edge):
    h = set()
    for c in surviving:
        t = triangles[c - 1]
        if edge in t.edges:
            h.update(t.vertices)
    if not h:
        raise NoTrianglesThroughEdgeError(
            f"edge {edge} lies on no triangle of the given set")
    return frozenset(h)


def _extract(g, triangles, mode, depth):
    """Returns (vertices, seed edges, depth reached, fallback used, degenerate)."""
    if depth > g.n:
        raise RuntimeError("reference extraction recursed too deep")
    if not triangles:
        if g.m:
            return frozenset(g.endpoints(1)), (), depth, False, True
        return frozenset({1}), (), depth, False, True
    record = full_trace(g, mode=mode, triangles=triangles).main_iteration()
    return _from_record(g, triangles, record, record.surviving, mode,
                        record.min_edges[0], depth)


def _from_record(g, triangles, record, surviving, mode, edge, depth):
    h = _span(g, triangles, surviving, edge)
    if is_clique(g, h):
        return h, (edge,), depth, False, False
    fallback = False
    if len(h) == g.n:
        h = h - {most_deficient_vertex(g, h)}
        fallback = True
    sub = induced_subgraph(g, h)
    verts, seeds, final_depth, fb, degen = _extract(
        sub.graph, enumerate_triangles(sub.graph), mode, depth + 1)
    return (frozenset(sub.parent_vertex(v) for v in verts),
            (edge,) + tuple(sub.parent_edge(e) for e in seeds),
            final_depth, fallback or fb, degen)


def _finish(g, raw, triangles) -> ReferenceResult:
    vertices, seeds, depth, fallback, degenerate = raw
    return ReferenceResult(
        vertices=vertices,
        witness_triangles=tuple(
            t.id for t in triangles if vertices.issuperset(t.vertices)),
        seed_edges=seeds,
        is_verified_clique=is_clique(g, vertices),
        recursion_depth=depth,
        degenerate=degenerate,
        fallback_used=fallback,
    )


def reference_extract(g: Graph, mode: str = MODE_EXHAUSTIVE) -> ReferenceResult:
    triangles = enumerate_triangles(g)
    return _finish(g, _extract(g, triangles, mode, 0), triangles)


def reference_per_edge(g: Graph, mode: str = MODE_EXHAUSTIVE):
    """(results by minimum edge, distinct vertex sets in canonical order)."""
    triangles = enumerate_triangles(g)
    if not triangles:
        return {}, ()
    record = full_trace(g, mode=mode, triangles=triangles).main_iteration()
    surviving = record.surviving
    by_edge = {
        edge: _finish(g, _from_record(g, triangles, record, surviving, mode,
                                      edge, 0), triangles)
        for edge in record.min_edges
    }
    distinct = tuple(
        sorted({r.vertices for r in by_edge.values()}, key=lambda s: sorted(s)))
    return by_edge, distinct
