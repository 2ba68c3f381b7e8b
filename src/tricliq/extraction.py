"""Clique extraction from the main iteration of a pruning trace.

A minimum-weight edge of the main iteration is chosen, the triangles through
it are gathered, and the union of their vertices forms the candidate
subgraph H.  If H induces a complete graph it is the clique; otherwise the
whole algorithm is re-applied to the subgraph induced by H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphError, is_clique
from .pruning import MODE_EXHAUSTIVE, full_trace
from .triangles import Triangle, enumerate_triangles


class NoTrianglesThroughEdgeError(GraphError):
    """The chosen edge has weight zero in the given triangle set."""


@dataclass(frozen=True)
class CliqueResult:
    """Outcome of one extraction run.

    ``seed_edges`` lists the chosen minimum-weight edge at each recursion
    level, already mapped back to the labels of the original graph.
    ``witness_triangles`` are the ids (in the original enumeration) of every
    triangle lying fully inside the returned vertex set.
    """

    vertices: frozenset[int]
    witness_triangles: tuple[int, ...]
    seed_edges: tuple[int, ...]
    is_verified_clique: bool
    recursion_depth: int
    degenerate: bool = False
    fallback_used: bool = False

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json_obj(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "size": self.size,
            "seed_edges": list(self.seed_edges),
            "depth": self.recursion_depth,
            "verified": self.is_verified_clique,
            "degenerate": self.degenerate,
            "fallback_used": self.fallback_used,
        }


def subgraph_for_edge(
    g: Graph,
    triangle_ids: Sequence[int],
    edge: int,
    triangles: Sequence[Triangle] | None = None,
) -> tuple[frozenset[int], tuple[int, ...]]:
    """Vertices reachable through ``edge``'s triangles, plus the triangles inside.

    H is the union of the vertex triples of every listed triangle containing
    ``edge``; the second element is every listed triangle whose vertices all
    lie in H.
    """
    g._check_edge(edge)
    if triangles is None:
        triangles = enumerate_triangles(g)
    chosen = [triangles[c - 1] for c in triangle_ids]
    through = [t for t in chosen if edge in t.edges]
    if not through:
        raise NoTrianglesThroughEdgeError(
            f"edge {edge} lies on no triangle of the given set")
    h: set[int] = set()
    for t in through:
        h.update(t.vertices)
    inside = tuple(t.id for t in chosen if h.issuperset(t.vertices))
    return frozenset(h), inside


def _most_deficient_vertex(g: Graph, vertices: frozenset[int]) -> int:
    """Vertex with the fewest neighbors inside ``vertices`` (lowest label on ties)."""
    def internal_degree(v: int) -> int:
        return len(g.neighbors(v) & vertices)

    return min(sorted(vertices), key=internal_degree)


def _extract(
    g: Graph,
    triangles: tuple[Triangle, ...],
    mode: str,
    seed_edge: int | None,
    depth: int,
    cap: int,
) -> tuple[frozenset[int], tuple[int, ...], int, bool, bool]:
    """Returns (vertices, seed edges, depth reached, fallback used, degenerate)."""
    if depth > cap:
        raise RuntimeError(f"extraction recursion exceeded depth cap {cap}")
    if not triangles:
        if g.m:
            return frozenset(g.endpoints(1)), (), depth, False, True
        return frozenset({1}), (), depth, False, True
    record = full_trace(g, mode=mode, triangles=triangles).main_iteration()
    return _extract_from_record(
        g, triangles, record, record.surviving, mode, seed_edge, depth, cap)


def _extract_from_record(g, triangles, record, surviving, mode, seed_edge, depth, cap):
    """Extraction from the main ``record``, whose surviving ids the caller
    passes so that several seed edges can share them."""
    if seed_edge is None:
        edge = record.min_edges[0]
    else:
        if seed_edge not in record.min_edges:
            raise GraphError(
                f"seed edge {seed_edge} does not attain the minimum weight "
                f"{record.min_weight} in the main iteration")
        edge = seed_edge
    h, _inside = subgraph_for_edge(g, surviving, edge, triangles=triangles)
    if is_clique(g, h):
        return h, (edge,), depth, False, False

    fallback = False
    if len(h) == g.n:
        # recursing on the same vertex set would loop; drop the vertex that
        # is missing the most internal edges and continue (non-standard step)
        h = h - {_most_deficient_vertex(g, h)}
        fallback = True
    sub = g.induced_subgraph(h)
    verts, seeds, final_depth, fb, degen = _extract(
        sub.graph, enumerate_triangles(sub.graph), mode, None, depth + 1, cap)
    mapped_verts = frozenset(sub.parent_vertex(v) for v in verts)
    mapped_seeds = tuple(sub.parent_edge(e) for e in seeds)
    return mapped_verts, (edge,) + mapped_seeds, final_depth, fallback or fb, degen


def _finish(g: Graph, raw, triangles: Sequence[Triangle]) -> CliqueResult:
    """Wrap a raw extraction; ``triangles`` are all of ``g``'s, in id order."""
    vertices, seeds, depth, fallback, degenerate = raw
    witnesses = tuple(t.id for t in triangles if vertices.issuperset(t.vertices))
    return CliqueResult(
        vertices=vertices,
        witness_triangles=witnesses,
        seed_edges=seeds,
        is_verified_clique=is_clique(g, vertices),
        recursion_depth=depth,
        degenerate=degenerate,
        fallback_used=fallback,
    )


def extract_max_clique(
    g: Graph,
    mode: str = MODE_EXHAUSTIVE,
    seed_edge: int | None = None,
    triangles: Sequence[Triangle] | None = None,
) -> CliqueResult:
    """Run the full pipeline: trace, main iteration, seed edge, subgraph, recurse.

    The seed edge defaults to the lowest-numbered edge attaining the minimum
    weight; pass ``seed_edge`` to reproduce a specific published choice (it
    must attain the minimum).  ``triangles``, when given, must be
    ``enumerate_triangles(g)``; a caller that already holds them saves the
    enumeration.  On a triangle-free graph the result degrades to the first
    edge, or the first vertex, flagged ``degenerate``.
    """
    triangles = enumerate_triangles(g) if triangles is None else tuple(triangles)
    return _finish(g, _extract(g, triangles, mode, seed_edge, 0, g.n), triangles)


@dataclass(frozen=True)
class PerEdgeCliques:
    """One extraction per minimum-weight edge of the main iteration."""

    by_edge: dict[int, CliqueResult]
    distinct: tuple[frozenset[int], ...]

    def sizes(self) -> dict[int, int]:
        return {e: r.size for e, r in self.by_edge.items()}


def cliques_per_min_edge(g: Graph, mode: str = MODE_EXHAUSTIVE) -> PerEdgeCliques:
    """Extract once for every edge attaining MIN in the main iteration.

    Surfaces every variant the arbitrary-edge rule allows instead of
    resolving the choice silently; ``distinct`` holds the deduplicated
    vertex sets in canonical order.
    """
    triangles = enumerate_triangles(g)
    if not triangles:
        return PerEdgeCliques(by_edge={}, distinct=())
    record = full_trace(g, mode=mode, triangles=triangles).main_iteration()
    surviving = record.surviving
    by_edge = {}
    for edge in record.min_edges:
        raw = _extract_from_record(
            g, triangles, record, surviving, mode, edge, 0, g.n)
        by_edge[edge] = _finish(g, raw, triangles)
    distinct = tuple(
        sorted({r.vertices for r in by_edge.values()}, key=lambda s: sorted(s))
    )
    return PerEdgeCliques(by_edge=by_edge, distinct=distinct)
