"""Tuple-building triangle listing and per-``Triangle`` weight counts: the
references the columnar store and its column counts are held to.

For each edge (u,v) with u < v, the common neighbours w > v are read off the
intersection of the two neighbour sets, each triple is kept as the one int
``(u·N + v)·N + w`` with ``N = n + 1``, the keys are sorted as plain ints,
and each key is decoded into one ``Triangle`` with its sorted edge triple.
It shares nothing with ``enumerate_triangles`` but the edge list: its
neighbour sets and its endpoint-pair to edge-id dict are built here from
``g.edges``, apart from the graph's own edge index.

``reference_inside`` filters every row of a store for the triangles inside
a vertex set, the reference ``TriangleStore.inside`` is held to.

``ring_sum`` adds edge sets over GF(2), the cycle-space sum the triangle
tests and criterion 8f check.
"""

from __future__ import annotations

from tricliq import Graph, Triangle
from tricliq.triangles import TriangleStore


def reference_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of ``g``, ascending by vertex triple, ids from 1."""
    adj = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    eid = {e: j for j, e in enumerate(g.edges, 1)}
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


def reference_edge_weights(g: Graph, triangles) -> tuple[int, ...]:
    """counts[j-1] = number of the given ``Triangle``s that contain edge j,
    counted one triangle at a time."""
    counts = [0] * g.m
    for t in triangles:
        for e in t.edges:
            counts[e - 1] += 1
    return tuple(counts)


def reference_vertex_weights(g: Graph, triangles) -> tuple[int, ...]:
    """counts[v-1] = number of the given ``Triangle``s that contain vertex v,
    counted one triangle at a time."""
    counts = [0] * g.n
    for t in triangles:
        for v in t.vertices:
            counts[v - 1] += 1
    return tuple(counts)


def reference_inside(store: TriangleStore, h) -> TriangleStore:
    """The rows of ``store`` whose three vertices all lie in ``h``, in store
    order, found by reading every row."""
    cols: list[list[int]] = [[] for _ in TriangleStore.__slots__]
    for row in zip(store.ids, store.us, store.vs, store.ws,
                   store.e1, store.e2, store.e3):
        if {row[1], row[2], row[3]} <= h:
            for col, x in zip(cols, row):
                col.append(x)
    return TriangleStore(*cols)


def ring_sum(sets) -> frozenset[int]:
    """Symmetric difference (GF(2) sum) of a sequence of index sets."""
    acc: frozenset[int] = frozenset()
    for s in sets:
        acc = acc ^ frozenset(s)
    return acc
