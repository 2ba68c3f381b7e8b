"""Triangle (3-cycle) enumeration and triangle-count weight vectors.

A triangle is stored both ways the reference tables write it: as the three
edge ids and as the three vertex ids, in a named tuple with its 1-based id.
A weight vector is a plain tuple of counts, one per edge or per vertex:
``counts[i]`` is the weight of label ``i + 1``.  Triangles are listed by
intersecting the neighbour sets of each edge's endpoints, each kept as one
int key that encodes its vertex triple, and the keys are sorted as plain
ints: enumeration order is ascending lexicographic on the sorted vertex
triple, whatever the edge order, which makes triangle ids stable and
reproducible.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .graph import Graph, GraphError


class Triangle(NamedTuple):
    """One 3-cycle: ``id`` is its 1-based position in enumeration order."""

    id: int
    vertices: tuple[int, int, int]
    edges: tuple[int, int, int]


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All 3-cliques of ``g``, each once, ascending by vertex triple.

    For each edge (u,v) with u < v the common neighbours w > v are read off
    the intersection of the two neighbour sets, so every triangle is produced
    exactly once at its lowest edge, in O(sum over edges of min(deg u, deg v))
    set work (Chiba & Nishizeki 1985).  Each triple is kept as the one int
    ``(u·N + v)·N + w`` with ``N = n + 1``, so the canonical order is a plain
    int sort; the triples and their edge ids are decoded afterwards.
    """
    adj = g._adj
    eid = g._eid
    base = g.n + 1
    keys = []
    for u, v in eid:
        common = adj[u] & adj[v]
        if common:
            uv = (u * base + v) * base
            keys.extend([uv + w for w in common if w > v])
    keys.sort()
    out = []
    for i, key in enumerate(keys, start=1):
        uv, w = divmod(key, base)
        u, v = divmod(uv, base)
        out.append(Triangle(i, (u, v, w),
                            tuple(sorted((eid[u, v], eid[u, w], eid[v, w])))))
    return tuple(out)


def min_max(counts: Sequence[int]) -> tuple[int, int]:
    """(MIN, MAX) of a weight vector, with MIN taken over nonzero entries;
    (0, 0) when every count is zero."""
    positive = [c for c in counts if c > 0]
    if not positive:
        return 0, 0
    return min(positive), max(positive)


def edge_weight_vector(g: Graph, triangles: Iterable[Triangle]) -> tuple[int, ...]:
    """counts[j-1] = number of given triangles that contain edge j."""
    counts = [0] * g.m
    for t in triangles:
        for e in t.edges:
            if not 1 <= e <= g.m:
                raise GraphError(f"triangle {t.id} references edge {e} outside 1..{g.m}")
            counts[e - 1] += 1
    return tuple(counts)


def vertex_weight_vector(g: Graph, triangles: Iterable[Triangle]) -> tuple[int, ...]:
    """counts[v-1] = number of given triangles that contain vertex v."""
    counts = [0] * g.n
    for t in triangles:
        for v in t.vertices:
            if not 1 <= v <= g.n:
                raise GraphError(f"triangle {t.id} references vertex {v} outside 1..{g.n}")
            counts[v - 1] += 1
    return tuple(counts)
