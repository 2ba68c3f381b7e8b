"""Truss numbers by a sequential support peel, independent of ``pruning.py``.

An edge's support is the number of triangles through it.  The k-truss is
the largest subgraph in which every edge has support at least k - 2, and an
edge's truss number is the largest k whose k-truss holds it (Cohen,
"Trusses: cohesive subgraphs for social network analysis", 2008).  The peel
raises k from 2 and, at each k, removes one edge of support at most k - 2 at
a time, lowering the support of the two other edges of each triangle it
was on, until no such edge is left; every edge removed at k has truss
number k.  It reads only ``g.n`` and ``g.edges`` and builds its own
neighbour sets.
"""

from __future__ import annotations

from tricliq import Graph


def truss_numbers(g: Graph) -> dict[int, int]:
    """Edge id -> truss number; 2 for an edge on no triangle."""
    nbrs: list[set[int]] = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    ids = {pair: j for j, pair in enumerate(g.edges, 1)}

    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    support = {pair: len(nbrs[pair[0]] & nbrs[pair[1]]) for pair in ids}
    truss: dict[int, int] = {}
    k = 2
    while len(truss) < len(ids):
        weak = [pair for pair, s in support.items() if s <= k - 2]
        while weak:
            u, v = pair = weak.pop()
            del support[pair]
            truss[ids[pair]] = k
            for w in nbrs[u] & nbrs[v]:
                for other in (key(u, w), key(v, w)):
                    support[other] -= 1
                    if support[other] == k - 2:
                        weak.append(other)
            nbrs[u].discard(v)
            nbrs[v].discard(u)
        k += 1
    return truss
