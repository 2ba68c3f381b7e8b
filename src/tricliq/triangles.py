"""Triangle (3-cycle) enumeration and triangle-count weight vectors.

A triangle is stored both ways the reference tables write it: as the three
edge ids and as the three vertex ids.  Triangles are listed by intersecting
the neighbour sets of each edge's endpoints, then sorted: enumeration order
is ascending lexicographic on the sorted vertex triple, whatever the edge
order, which makes triangle ids stable and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .graph import Graph, GraphError


@dataclass(frozen=True)
class Triangle:
    """One 3-cycle: ``id`` is its 1-based position in enumeration order."""

    id: int
    vertices: tuple[int, int, int]
    edges: tuple[int, int, int]

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All 3-cliques of ``g``, each once, ascending by vertex triple.

    For each edge (u,v) with u < v the common neighbours w > v are read off
    the intersection of the two neighbour sets, so every triangle is produced
    exactly once at its lowest edge, in O(sum over edges of min(deg u, deg v))
    set work (Chiba & Nishizeki 1985).
    """
    adj = g._adj
    eid = g._eid
    found = []
    for (u, v), uv in eid.items():
        for w in adj[u] & adj[v]:
            if w > v:
                found.append(((u, v, w), (uv, eid[(u, w)], eid[(v, w)])))
    found.sort()
    return tuple(
        Triangle(id=i + 1, vertices=verts, edges=tuple(sorted(eids)))
        for i, (verts, eids) in enumerate(found)
    )


@dataclass(frozen=True)
class WeightVector:
    """Per-edge or per-vertex triangle counts, indexed by 1-based label.

    ``counts[i]`` is the weight of label ``i + 1``; iteration yields the
    counts in label order so a vector compares directly against a printed
    tuple.
    """

    counts: tuple[int, ...]
    kind: str  # "edge" | "vertex"

    def weight(self, label: int) -> int:
        if not 1 <= label <= len(self.counts):
            raise GraphError(f"label {label} outside 1..{len(self.counts)}")
        return self.counts[label - 1]

    def labels_with_weight(self, value: int) -> tuple[int, ...]:
        return tuple(i + 1 for i, c in enumerate(self.counts) if c == value)

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def to_list(self) -> list[int]:
        return list(self.counts)


class MinMax(NamedTuple):
    min: int  # smallest strictly positive count; 0 when all counts are zero
    max: int
    all_zero: bool


def min_max(w: WeightVector | Sequence[int]) -> MinMax:
    """(MIN, MAX) of a weight vector, with MIN taken over nonzero entries."""
    counts = list(w)
    positive = [c for c in counts if c > 0]
    if not positive:
        return MinMax(0, 0, True)
    return MinMax(min(positive), max(positive), False)


def edge_weight_vector(g: Graph, triangles: Iterable[Triangle]) -> WeightVector:
    """counts[j-1] = number of given triangles that contain edge j."""
    counts = [0] * g.m
    for t in triangles:
        for e in t.edges:
            if not 1 <= e <= g.m:
                raise GraphError(f"triangle {t.id} references edge {e} outside 1..{g.m}")
            counts[e - 1] += 1
    return WeightVector(tuple(counts), "edge")


def vertex_weight_vector(g: Graph, triangles: Iterable[Triangle]) -> WeightVector:
    """counts[v-1] = number of given triangles that contain vertex v."""
    counts = [0] * g.n
    for t in triangles:
        for v in t.vertices:
            if not 1 <= v <= g.n:
                raise GraphError(f"triangle {t.id} references vertex {v} outside 1..{g.n}")
            counts[v - 1] += 1
    return WeightVector(tuple(counts), "vertex")
