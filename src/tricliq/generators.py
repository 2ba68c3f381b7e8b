"""Deterministic generators for the graph families used throughout the package.

All generators emit edges in lexicographic order of the endpoint pair
(u-major, u < v).  That is the numbering the reference tables for these
families use, so edge ids line up with published traces.  The three
families are complete multipartite graphs: K_n has n parts of size 1 and
the Moon-Moser graph k parts of size 3, so one pair rule builds them all.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .graph import Graph, GraphError


def _multipartite(parts: Sequence[int]) -> Graph:
    """Parts numbered consecutively; each vertex u is joined to every vertex
    after the last one of its own part, so pairs come out lexicographic."""
    ends = [end for end, size in zip(accumulate(parts), parts)
            for _ in range(size)]
    n = len(ends)
    return Graph(n, [(u, v) for u, end in enumerate(ends, 1)
                     for v in range(end + 1, n + 1)])


def _check_ints(*values) -> None:
    """Sizes are exact ints, as ``Graph``'s labels are: ``True`` and ``2.0``
    equal ints but are no size."""
    for value in values:
        if type(value) is not int:
            raise GraphError(f"expected an int size, got {value!r}")


def complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices; C(n,2) edges."""
    _check_ints(n)
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    return _multipartite([1] * n)


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph with the given part sizes.

    Vertices are numbered consecutively by part; every cross-part pair is
    an edge and no same-part pair is.
    """
    if len(parts) < 2:
        raise GraphError("complete multipartite graph needs at least 2 parts")
    _check_ints(*parts)
    if any(s < 1 for s in parts):
        raise GraphError("every part must have size >= 1")
    return _multipartite(parts)


def moon_moser(k: int) -> Graph:
    """Moon-Moser graph with k triads: 3k vertices, n(n-3)/2 edges.

    Triad i is {3i-2, 3i-1, 3i}; triads are independent sets and every
    cross-triad pair is an edge.  The graph has exactly 3**k maximal
    cliques, each of size k, which is what makes the family the standard
    worst case for clique enumeration.
    """
    _check_ints(k)
    if k < 1:
        raise GraphError(f"moon_moser needs k >= 1, got {k}")
    return _multipartite([3] * k)
