"""Immutable undirected simple graphs with 1-based vertex and edge labels.

Edge ``j`` is the j-th pair given at construction time.  All algorithms in
this package report vertices and edges by these labels, so graphs built from
published tables keep the table's numbering.

A graph holds its edge list and one index, its only adjacency
representation: per vertex u, a dict from each higher neighbour v to the id
of edge (u, v).  That index is the only place a vertex pair is turned into
an edge id; triangle listing reads it as it is, since Chiba and Nishizeki's
listing walks exactly these higher neighbours, and ``has_edge``,
``is_clique`` and ``complement`` read it too.  Memory grows with n + m, and
the graph keeps the int objects of the pairs it is given, so pairs that share
one int per vertex cost less than pairs with an int per endpoint.  A reader
that walks every neighbour of every vertex (the nonseparability DFS, the
exact oracles) asks ``Graph._neighbour_lists`` for lists built from the edge
list in O(n + m) per call, and the oracles build their bitsets from those
lists.  There is no one-vertex neighbour or degree view: read from the index,
it would look up every lower vertex, O(n) per call.

The constructor reads the pairs once, in the order given: it checks each
pair, numbers it and enters it in the edge index, and stops at the first
pair it rejects.  ``check_nonseparable`` is the linear-time lowpoint DFS of
Hopcroft and Tarjan ("Efficient algorithms for graph manipulation", CACM
1973).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


class GraphError(ValueError):
    """Base class for invalid graph data or arguments.

    ``position`` is the 0-based index of the rejected pair when ``Graph``
    rejects one of the pairs it was given, and ``None`` otherwise.
    """

    position: int | None

    def __init__(self, *args, position: int | None = None):
        super().__init__(*args)
        self.position = position


class VertexRangeError(GraphError):
    """A vertex label falls outside 1..n."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered pair appears twice in an edge list."""


class EmptyVertexSetError(GraphError):
    """An operation that needs at least one vertex received none."""


@dataclass(frozen=True, slots=True, init=False)
class Graph:
    """Undirected simple graph on vertices ``1..n``.

    A frozen dataclass holding nothing but ``n``, ``m``, the edge list and
    the edge index: assigning or deleting a field raises ``AttributeError``,
    graphs compare and hash by ``n`` and the edge list, and ``copy``,
    ``deepcopy`` and ``pickle`` give an equal graph.  ``edges[j-1]`` holds
    the endpoints of edge ``j`` as an ordered pair ``(u, v)`` with
    ``u < v``, and ``_up[u][v]`` is ``j``: ``_up`` is the edge index, one
    dict per vertex from its higher neighbours to edge ids (``_up[0]`` is
    empty).

    ``pairs`` may be any iterable, a one-shot iterator included; it is read
    once.  Each pair is checked as it is read: two values, both exact ints
    in ``1..n`` (the message shows the pair as given), then no self-loop,
    then, with its endpoints ordered, not seen before.  The first pair that
    fails raises the matching ``GraphError`` subclass with ``position`` set
    to its 0-based index.  ``n`` must be an exact int too.

    Labels are exact ints: ``True`` and ``1.0`` equal 1 but name no vertex
    or edge, so a pair holding one is out of range, ``has_edge`` answers
    ``False`` for them and the other queries raise ``GraphError``.
    """

    n: int
    m: int = field(compare=False)
    edges: tuple[tuple[int, int], ...] = field(repr=False)
    _up: tuple[dict[int, int], ...] = field(compare=False, repr=False)

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if type(n) is not int or n < 1:
            raise VertexRangeError(f"vertex count must be a positive int, got {n!r}")
        edges: list[tuple[int, int]] = []
        up: list[dict[int, int]] = [{} for _ in range(n + 1)]
        # each error is raised as it is made: held in a local, it would sit
        # on its own traceback's frame, a cycle only the collector frees
        for i, pair in enumerate(pairs):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise VertexRangeError(f"{pair!r} is not a pair of vertex labels",
                                       position=i) from None
            if not (type(u) is int is type(v) and 1 <= u <= n and 1 <= v <= n):
                raise VertexRangeError(f"edge ({u},{v}) outside 1..{n}", position=i)
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}", position=i)
            if u > v:
                u, v = v, u
            above_u = up[u]
            if v in above_u:
                raise DuplicateEdgeError(f"duplicate edge ({u},{v})", position=i)
            edges.append((u, v))
            above_u[v] = i + 1

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(edges))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_up", tuple(up))

    # -- views ------------------------------------------------------------

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        if type(u) is not int or type(v) is not int:
            return False
        if u > v:
            u, v = v, u
        # the range check keeps a label below 1 from indexing ``_up`` from
        # its end
        return 1 <= u <= self.n and v in self._up[u]

    def edge_id(self, u: int, v: int) -> int:
        if type(u) is int is type(v) and u > v:
            u, v = v, u
        if not self.has_edge(u, v):
            raise GraphError(f"({u},{v}) is not an edge")
        return self._up[u][v]

    def endpoints(self, e: int) -> tuple[int, int]:
        self._check_edge(e)
        return self.edges[e - 1]

    def _neighbour_lists(self) -> list[list[int]]:
        """Entry v lists the neighbours of v, in no particular order (entry
        0 is empty).  Built from ``edges`` in O(n + m) on each call, for a
        reader that walks every vertex's neighbours."""
        nbrs: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return nbrs

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 1 <= v <= self.n:
            raise VertexRangeError(f"vertex {v} outside 1..{self.n}")

    def _check_edge(self, e: int) -> None:
        if type(e) is not int or not 1 <= e <= self.m:
            raise GraphError(f"edge id {e} outside 1..{self.m}")

    # -- derived graphs ---------------------------------------------------

    def complement(self) -> "Graph":
        """Graph on the same vertices whose edges are exactly the missing pairs."""
        up = self._up
        pairs = [
            (u, v)
            for u in range(1, self.n + 1)
            for v in range(u + 1, self.n + 1)
            if v not in up[u]
        ]
        return Graph(self.n, pairs)


@dataclass(frozen=True)
class NonseparabilityReport:
    """Structural flags for the nonseparability precondition.

    The pruning heuristic is specified for connected graphs with no bridge,
    no articulation point, and minimum degree at least three.  The report is
    informational: callers may still run on graphs that fail it.
    """

    connected: bool
    has_bridge: bool
    has_articulation_point: bool
    min_degree: int

    @property
    def is_nonseparable(self) -> bool:
        return (
            self.connected
            and not self.has_bridge
            and not self.has_articulation_point
            and self.min_degree >= 3
        )


def check_nonseparable(g: Graph) -> NonseparabilityReport:
    """Run connectivity, bridge and articulation-point checks on ``g``."""
    n = g.n
    # iterative DFS lowlink (Hopcroft & Tarjan 1973); one outer loop pass
    # per connected component.  A stack entry is (vertex, DFS parent or 0
    # at the root, iterator over the vertex's neighbours).
    adj = g._neighbour_lists()
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    timer = 1
    has_bridge = False
    has_art = False
    components = 0

    for root in range(1, n + 1):
        if disc[root]:
            continue
        components += 1
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, 0, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if not disc[w]:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent:
                    low_v = low[v]
                    if low_v < low[parent]:
                        low[parent] = low_v
                    if low_v > disc[parent]:
                        has_bridge = True
                    if parent == root:
                        root_children += 1
                    elif low_v >= disc[parent]:
                        has_art = True
        if root_children > 1:
            has_art = True

    connected = components == 1
    min_degree = min(map(len, adj[1:]))
    return NonseparabilityReport(connected, has_bridge, has_art, min_degree)


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every pair of the given vertices is an edge of ``g``."""
    vs = list(vertices)
    if not vs:
        raise EmptyVertexSetError("clique test needs at least one vertex")
    # each label is checked as given, before a set could merge ``True``
    # into 1
    for v in vs:
        g._check_vertex(v)
    vs = sorted(set(vs))
    # the vertices ascend, so each pair is looked up in the edge index
    # dict of its lower vertex
    up = g._up
    return all(all(map(up[u].__contains__, vs[i + 1:]))
               for i, u in enumerate(vs))
