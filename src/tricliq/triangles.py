"""Triangle (3-cycle) enumeration and triangle-count weight vectors.

A triangle is reported the way the reference tables write it: as the three
edge ids and as the three vertex ids, in a named tuple with its 1-based id.
A weight vector is a plain tuple of counts, one per edge or per vertex:
``counts[i]`` is the weight of label ``i + 1``.

Triangles are listed by intersecting, for each edge, the higher neighbours
of its endpoints, taken in ascending vertex order: enumeration order is
ascending lexicographic on the sorted vertex triple, whatever the edge
order, which makes triangle ids stable and reproducible.  The listing is
held as flat columns, a ``TriangleStore``: the ids, the three vertex
columns and the three edge-id columns, all in that canonical order, with
a triangle (u, v, w)'s edges in the columns as (u, v), (u, w), (v, w).  Each
edge's run of triangles extends the columns by ``map`` and ``repeat``
passes; the trace and the weight vectors read the columns by position.
``TriangleStore.of`` is the one check of a store against a graph: one loop
over its rows admits only rows of exact ints that are triangles of the
graph by the listing's own definition, read off the graph's edge index,
and then only that order, which ``TriangleStore.inside`` relies on.  A
``Triangle`` is only an output view, built when a caller reads the store.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import and_, lt
from typing import Iterator, NamedTuple, Sequence

from .graph import Graph, GraphError


class Triangle(NamedTuple):
    """One 3-cycle: ``id`` is its 1-based position in enumeration order."""

    id: int
    vertices: tuple[int, int, int]
    edges: tuple[int, int, int]


class TriangleStore:
    """Triangles as flat columns in canonical vertex-triple order.

    Position ``k`` is one triangle: ``ids[k]`` is its id, ``us[k] < vs[k] <
    ws[k]`` its vertices, and ``e1[k]``, ``e2[k]``, ``e3[k]`` the ids of its
    edges (us[k], vs[k]), (us[k], ws[k]) and (vs[k], ws[k]), in that order,
    as ``enumerate_triangles`` lists them and ``take`` keeps them.  ``us`` is
    non-decreasing, so the triangles whose lowest vertex is ``u`` form one
    run of positions, found by bisection.  A listing's ids are ``range(1, T
    + 1)``; ``take`` and ``inside`` keep the ids of the triangles they hold.

    ``store[k]``, slicing, iteration and ``len`` behave as on a tuple of
    ``Triangle``s, each built on demand with its edges sorted.
    """

    __slots__ = ("ids", "us", "vs", "ws", "e1", "e2", "e3")

    def __init__(self, ids: Sequence[int], us: Sequence[int], vs: Sequence[int],
                 ws: Sequence[int], e1: Sequence[int], e2: Sequence[int],
                 e3: Sequence[int]):
        self.ids = ids
        self.us, self.vs, self.ws = us, vs, ws
        self.e1, self.e2, self.e3 = e1, e2, e3

    @classmethod
    def of(cls, g: Graph, store: TriangleStore) -> TriangleStore:
        """``store`` checked as a store of ``g``'s triangles: the one triangle check.

        The store's seven columns must be of one length.  Then one loop
        reads the rows in order, and each must be a triangle of ``g`` by
        definition: its seven values exact ints (``type(x) is int``, so no
        ``bool`` or ``float``, though ``True == 1``), and the edge index
        naming its pair (u, v) by ``e1``, (u, w) by ``e2`` and (v, w) by
        ``e3``, which puts its vertices in ``1..g.n``, ascending, and its
        edge ids in ``1..g.m``.  Last, two ``map`` passes over those ints
        require its ids to strictly ascend and its vertex triples to
        strictly ascend, so no triangle is listed twice, as
        ``enumerate_triangles`` and ``take`` at ascending positions leave
        it.  The trace names removals in position order and finds ids by
        bisection, and ``inside`` bisects the lowest-vertex column, so any
        other value, a store with a short column, a row that is not a
        triangle of ``g`` or a store out of order raises ``GraphError``; a
        bad row is named, the first one.
        """
        if not isinstance(store, cls):
            raise GraphError("triangles must be a TriangleStore, "
                             f"not {type(store).__name__}")
        lengths = [len(getattr(store, name)) for name in cls.__slots__]
        if min(lengths) != max(lengths):
            raise GraphError("triangle columns differ in length: " + ", ".join(
                f"{name} {k}" for name, k in zip(cls.__slots__, lengths)))
        ids, us, vs, ws = store.ids, store.us, store.vs, store.ws
        up, n = g._up, g.n
        # an int edge id never equals the None a missing pair reads, and
        # once e1 holds, v is a higher neighbour of u, so up[v] exists
        for tid, u, v, w, a, b, c in zip(ids, us, vs, ws,
                                         store.e1, store.e2, store.e3):
            if not (type(tid) is type(u) is type(v) is type(w) is type(a)
                    is type(b) is type(c) is int and 0 < u <= n
                    and (d := up[u]).get(v) == a and d.get(w) == b
                    and up[v].get(w) == c):
                raise GraphError(f"triangle {tid!r} with vertices {(u, v, w)} and "
                                 f"edges {(a, b, c)} is not a triangle of the graph")
        if not all(map(lt, ids, islice(ids, 1, None))):
            raise GraphError("triangle ids must strictly ascend")
        if not all(map(lt, zip(us, vs, ws),
                       islice(zip(us, vs, ws), 1, None))):
            raise GraphError("triangles' vertex triples must strictly ascend")
        return store

    def take(self, ks: Sequence[int]) -> TriangleStore:
        """The triangles at the ascending positions ``ks``, as a store of
        their own under the same ids."""
        return TriangleStore(*(list(map(col.__getitem__, ks)) for col in (
            self.ids, self.us, self.vs, self.ws, self.e1, self.e2, self.e3)))

    def inside(self, h: frozenset[int]) -> TriangleStore:
        """The triangles whose vertices all lie in ``h``, as a store of their
        own under the same ids.

        The triangles whose lowest vertex is ``u`` form one run of positions,
        found by two bisections of ``us``; only the runs of the vertices of
        ``h`` are read, and each is filtered on the other two vertex columns.
        The two largest vertices of ``h`` cannot be the lowest vertex of a
        triangle inside it.
        """
        us, vs, ws = self.us, self.vs, self.ws
        in_h = h.__contains__
        ks: list[int] = []
        hi = 0
        for u in sorted(h)[:-2]:
            lo = bisect_left(us, u, hi)
            hi = bisect_left(us, u + 1, lo)
            ks.extend(compress(range(lo, hi), map(
                and_, map(in_h, vs[lo:hi]), map(in_h, ws[lo:hi]))))
        return self.take(ks)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        return Triangle(self.ids[k], (self.us[k], self.vs[k], self.ws[k]),
                        tuple(sorted((self.e1[k], self.e2[k], self.e3[k]))))

    def __iter__(self) -> Iterator[Triangle]:
        return map(Triangle, self.ids, zip(self.us, self.vs, self.ws),
                   map(tuple, map(sorted, zip(self.e1, self.e2, self.e3))))


def enumerate_triangles(g: Graph) -> TriangleStore:
    """All 3-cliques of ``g``, each once, ascending by vertex triple.

    The graph's edge index gives each vertex u a dict from its higher
    neighbours to the ids of the edges to them; the listing reads it as it
    is and builds no index of its own.  For u ascending and each higher
    neighbour v ascending, the keys the two dicts share are the vertices
    w > v closing a triangle (u, v, w), so every triangle is produced
    exactly once, at its lowest edge, already in canonical order, in
    O(sum over edges of min(deg u, deg v)) set work (Chiba & Nishizeki
    1985).  The sorted run of such w extends all six columns at once: the
    edge ids of (u, w) and (v, w) are read off the two dicts by ``map``.
    """
    up = g._up
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []
    e1: list[int] = []
    e2: list[int] = []
    e3: list[int] = []
    for u, above_u in enumerate(up):
        if len(above_u) < 2:
            continue
        for v in sorted(above_u):
            above_v = up[v]
            common = above_u.keys() & above_v.keys()
            if common:
                run = sorted(common)
                k = len(run)
                us += repeat(u, k)
                vs += repeat(v, k)
                ws += run
                e1 += repeat(above_u[v], k)
                e2 += map(above_u.__getitem__, run)
                e3 += map(above_v.__getitem__, run)
    return TriangleStore(range(1, len(us) + 1), us, vs, ws, e1, e2, e3)


def min_max(counts: Sequence[int]) -> tuple[int, int]:
    """(MIN, MAX) of a weight vector, with MIN taken over nonzero entries;
    (0, 0) when every count is zero."""
    positive = [c for c in counts if c > 0]
    if not positive:
        return 0, 0
    return min(positive), max(positive)


def edge_weight_vector(g: Graph, triangles: TriangleStore) -> tuple[int, ...]:
    """counts[j-1] = number of the store's triangles that contain edge j."""
    s = TriangleStore.of(g, triangles)
    counts = Counter(chain(s.e1, s.e2, s.e3))
    return tuple(map(counts.get, range(1, g.m + 1), repeat(0)))


def vertex_weight_vector(g: Graph, triangles: TriangleStore) -> tuple[int, ...]:
    """counts[v-1] = number of the store's triangles that contain vertex v."""
    s = TriangleStore.of(g, triangles)
    counts = Counter(chain(s.us, s.vs, s.ws))
    return tuple(map(counts.get, range(1, g.n + 1), repeat(0)))

