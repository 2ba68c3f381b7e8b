"""Clique extraction from the main iteration of a pruning trace.

A minimum-weight edge of the main iteration is chosen, the triangles through
it are gathered, and the union of their vertices forms the candidate
subgraph H.  If H induces a complete graph it is the clique; otherwise the
whole algorithm is re-applied to the subgraph induced by H.

That re-application is a loop over the caller's one ``TriangleStore``.
The triangles of the subgraph induced by H are exactly the graph's
triangles inside H, so each level keeps the previous level's triangles
inside H as a store of their own, under their original ids and edge ids,
traces it with ``full_trace``, and takes the next seed from that trace's
main iteration.  H shrinks at every level, and the level whose H is
complete holds the clique's witness triangles.

This module only orchestrates; each step it takes is owned elsewhere.  The
trace and H (``IterationRecord.vertices_on``, read off the seed's per-edge
list) belong to ``pruning``; the store's order and the triangles inside H
(``TriangleStore.inside``, which reads only the runs of H's vertices)
belong to ``triangles``.  A level therefore costs what its seed touches,
not the triangle count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphError, is_clique
from .pruning import MODE_EXHAUSTIVE, IterationRecord, full_trace
from .triangles import TriangleStore


class NoTrianglesThroughEdgeError(GraphError):
    """The chosen edge has weight zero in the given triangle set."""


@dataclass(frozen=True)
class CliqueResult:
    """Outcome of one extraction run.

    ``seed_edges`` lists the minimum-weight edge chosen at each level, by
    its id in the input graph; ``recursion_depth`` counts the levels after
    the first.  ``witness_triangles`` are the ids (in the input graph's
    enumeration) of every triangle lying fully inside the returned vertex set.
    """

    vertices: frozenset[int]
    witness_triangles: tuple[int, ...]
    seed_edges: tuple[int, ...]
    is_verified_clique: bool
    recursion_depth: int
    degenerate: bool = False

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def fallback_used(self) -> bool:
        """Always False: H shrinks at every level, so extraction never has to
        drop a vertex to make progress.  Kept for the JSON schema."""
        return False

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
    triangles: TriangleStore,
) -> frozenset[int]:
    """H: the union of the vertex triples of the listed triangles through ``edge``.

    ``triangles`` must be the whole listing ``enumerate_triangles(g)``, a
    ``TriangleStore`` in ascending id order whose triangle ``c`` sits at
    position ``c - 1``; any other value, or a listed id that is not an int
    in ``1..T``, raises ``GraphError``.  This scans every listed id; extraction reads H
    off the seed's per-edge list instead.
    """
    g._check_edge(edge)
    store = TriangleStore.of(g, triangles)
    t = len(store)
    if store.ids and (store.ids[0], store.ids[-1]) != (1, t):
        raise GraphError("subgraph_for_edge needs the whole listing, with ids 1..T")
    us, vs, ws = store.us, store.vs, store.ws
    e1, e2, e3 = store.e1, store.e2, store.e3
    h: set[int] = set()
    for c in triangle_ids:
        if type(c) is not int or not 1 <= c <= t:
            raise GraphError(f"triangle {c} is not in the listing 1..{t}")
        k = c - 1
        if edge in (e1[k], e2[k], e3[k]):
            h.update((us[k], vs[k], ws[k]))
    if not h:
        raise NoTrianglesThroughEdgeError(
            f"edge {edge} lies on no triangle of the given set")
    return frozenset(h)


def _grow(
    g: Graph,
    level: TriangleStore,
    record: IterationRecord,
    edge: int,
    mode: str,
) -> CliqueResult:
    """Grow a clique from ``edge``, a minimum edge of ``record``, the main
    iteration of the trace of ``level``.

    Each next level is a store of the previous level's triangles that lie
    inside H, under their ids in ``level``, so they are exactly the
    triangles of the subgraph induced by H.  The final level is the
    witnesses.
    """
    seeds = [edge]
    n = g.n
    while True:
        h = record.vertices_on(edge)
        level = level.inside(h)
        if is_clique(g, h):
            return CliqueResult(
                vertices=h,
                witness_triangles=tuple(level.ids),
                seed_edges=tuple(seeds),
                is_verified_clique=True,
                recursion_depth=len(seeds) - 1,
            )
        if len(h) == n:
            # cannot happen: if the seed's surviving triangles span all n
            # vertices, the seed weighs n - 2, so MIN is the most any edge
            # can weigh; each edge from a seed endpoint then lies on
            # surviving triangles with every other vertex, so H is complete
            raise RuntimeError(
                f"extraction from edge {edge} kept all {n} vertices of a "
                "non-complete subgraph; invariant violated")
        n = len(h)
        record = full_trace(g, mode, level).main_iteration()
        # the subgraph induced by H numbers its edges in endpoint-pair
        # order, so its lowest minimum edge has the smallest pair
        edge = min(record.min_edges, key=g.endpoints)
        seeds.append(edge)


def extract_max_clique(
    g: Graph,
    mode: str = MODE_EXHAUSTIVE,
    triangles: TriangleStore | None = None,
) -> CliqueResult:
    """Run the full pipeline: trace, main iteration, seed edge, subgraph, repeat.

    The seed edge is the lowest-numbered edge attaining the minimum weight;
    ``cliques_per_min_edge`` grows one clique from each of them.
    ``triangles``, when given, goes to ``full_trace``: a ``TriangleStore``
    in ascending id order whose rows are triangles of ``g``, such as
    ``enumerate_triangles(g)`` (a caller that holds it saves listing again)
    or a ``take`` of it; ``TriangleStore.of`` rejects anything else with
    ``GraphError``.  On a triangle-free graph the result degrades to the
    first edge, or the first vertex, flagged ``degenerate``.
    """
    trace = full_trace(g, mode, triangles)
    if not trace.records:
        vertices = frozenset(g.endpoints(1) if g.m else (1,))
        return CliqueResult(
            vertices=vertices,
            witness_triangles=(),
            seed_edges=(),
            is_verified_clique=is_clique(g, vertices),
            recursion_depth=0,
            degenerate=True,
        )
    record = trace.main_iteration()
    return _grow(g, trace.triangles, record, record.min_edges[0], mode)


@dataclass(frozen=True)
class PerEdgeCliques:
    """One extraction per minimum-weight edge of the main iteration."""

    by_edge: dict[int, CliqueResult]
    distinct: tuple[frozenset[int], ...]


def cliques_per_min_edge(g: Graph, mode: str = MODE_EXHAUSTIVE) -> PerEdgeCliques:
    """Extract once for every edge attaining MIN in the main iteration.

    Surfaces every variant the arbitrary-edge rule allows instead of
    resolving the choice silently; ``distinct`` holds the deduplicated
    vertex sets in canonical order.
    """
    trace = full_trace(g, mode)
    if not trace.records:
        return PerEdgeCliques(by_edge={}, distinct=())
    record = trace.main_iteration()
    by_edge = {edge: _grow(g, trace.triangles, record, edge, mode)
               for edge in record.min_edges}
    distinct = tuple(
        sorted({r.vertices for r in by_edge.values()}, key=lambda s: sorted(s))
    )
    return PerEdgeCliques(by_edge=by_edge, distinct=distinct)
