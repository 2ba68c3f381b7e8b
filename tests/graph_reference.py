"""References that ``Graph`` and ``check_nonseparable`` are held to.

``_raise_first_rejected`` walks a pair list in order and raises the error
``Graph(n, pairs)`` must raise for the first pair it rejects.

``neighbors`` and ``degree`` read one vertex's neighbours off the edge list,
O(m) per call; the library has no per-vertex view, and a reader of every
vertex's neighbours takes ``Graph._neighbour_lists``.

Nonseparability by deletion: a bridge is an edge, and an articulation point
a vertex, whose deletion leaves more connected components than the graph
has.  Counting components once per edge and once per vertex costs
O((n + m)^2), so the tests run it only on small graphs.
"""

from __future__ import annotations

from tricliq import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    NonseparabilityReport,
    SelfLoopError,
    VertexRangeError,
)


def _raise_first_rejected(n: int, pairs: list[tuple[int, int]]) -> None:
    """Raise the error for the first pair ``Graph(n, pairs)`` rejects: an
    endpoint that is not an exact int in 1..n, a self-loop, or a pair seen
    before."""
    seen = set()
    for i, (u, v) in enumerate(pairs):
        if not (type(u) is int and type(v) is int and 1 <= u <= n and 1 <= v <= n):
            exc: GraphError = VertexRangeError(f"edge ({u},{v}) outside 1..{n}")
        elif u == v:
            exc = SelfLoopError(f"self-loop at vertex {u}")
        else:
            if u > v:
                u, v = v, u
            if (u, v) not in seen:
                seen.add((u, v))
                continue
            exc = DuplicateEdgeError(f"duplicate edge ({u},{v})")
        exc.position = i
        raise exc


def neighbors(g: Graph, v: int) -> frozenset[int]:
    """The neighbours of ``v`` in ``g``: the other endpoint of each edge on it."""
    if not 1 <= v <= g.n:
        raise VertexRangeError(f"vertex {v} outside 1..{g.n}")
    return frozenset(b if a == v else a for a, b in g.edges if v in (a, b))


def degree(g: Graph, v: int) -> int:
    return len(neighbors(g, v))


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
