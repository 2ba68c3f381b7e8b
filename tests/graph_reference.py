"""Nonseparability by deletion: the reference ``check_nonseparable`` is held to.

A bridge is an edge, and an articulation point a vertex, whose deletion
leaves more connected components than the graph has.  Counting components
once per edge and once per vertex costs O((n + m)^2), so the tests run it
only on small graphs.
"""

from __future__ import annotations

from tricliq import Graph, NonseparabilityReport


def components(vertices: set[int], pairs: list[tuple[int, int]]) -> int:
    """Number of connected components of the graph on ``vertices`` whose
    edges are the ``pairs`` with both ends in ``vertices``."""
    label = {v: v for v in vertices}

    def root(v: int) -> int:
        while label[v] != v:
            v = label[v]
        return v

    count = len(vertices)
    for u, v in pairs:
        if u in vertices and v in vertices and root(u) != root(v):
            label[root(u)] = root(v)
            count -= 1
    return count


def reference_nonseparable(g: Graph) -> NonseparabilityReport:
    vertices = set(g.vertices())
    pairs = list(g.edges)
    whole = components(vertices, pairs)
    has_bridge = any(components(vertices, pairs[:i] + pairs[i + 1:]) > whole
                     for i in range(len(pairs)))
    has_art = any(components(vertices - {v}, pairs) > whole for v in vertices)
    min_degree = min(sum(v in pair for pair in pairs) for v in vertices)
    return NonseparabilityReport(whole == 1, has_bridge, has_art, min_degree)
