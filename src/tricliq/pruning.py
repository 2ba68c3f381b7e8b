"""Iterative removal of triangles through minimum-weight edges.

An edge's weight is the number of surviving triangles through it.  Each
iteration finds the edges whose weight equals the minimum (zeros excluded)
and removes every surviving triangle through such an edge.  This repeats
until nothing survives.  The iteration with the largest minimum weight is
the main iteration; clique extraction starts from it.

The loop is the support-count peel of truss decomposition (Wang & Cheng,
"Truss decomposition in massive networks", PVLDB 2012), and ``full_trace``
runs it the same way: each edge's triangle list is built once, and edges sit
in one bucket per weight.  An iteration takes the minimum bucket whole and
removes the live triangles on those edges' lists, each in one step: it is
marked with its iteration in ``at``, and its edges outside the minimum set
move one bucket down, at most two per triangle.  Every edge list is scanned
once, so a trace costs O(T + m) bucket and list steps plus the sorting of
each iteration's minimum edges, where T is the triangle count.

The peel runs on the columns of a ``TriangleStore`` and handles each
triangle by its position: the per-edge lists are built from the three
edge-id columns zipped, a removal decrements the edges it reads off them,
and no ``Triangle`` is built.  ``full_trace`` is the only way into the
peel.  It peels a graph's whole store, or a store in canonical order that
the caller passes; extraction passes each level's store of the triangles
inside H, which costs in proportion to that store, not to the graph's
triangle count.

Records keep only what each iteration decided: MIN, MAX, the minimum
edges and how many triangles it removed.  They hold no removal lists,
and no read builds any: ``at`` is the one record of removals.  An
iteration's surviving ids are rebuilt from ``at`` when read, so a caller
pays for them only when it asks, and the JSON log's weights come from one
decrement replay.  The per-edge lists outlive the peel, and a record reads
its own triangles off them in time proportional to an edge's weight, not
T: ``IterationRecord.removed`` reads its minimum edges' lists, and
``IterationRecord.vertices_on`` reads a seed edge's surviving triangles,
the candidate subgraph extraction grows.

The JSON log has one weight vector per record, O(records * m) numbers.
``Trace.write_json`` is the one writer of its format: it writes the log one
record at a time, re-formatting only the weights a record's removals
changed and re-joining only the blocks of ``isqrt(m)`` weights that hold
them, and ``tricliq trace --json`` streams through it.
``Trace.to_json_obj`` parses what it writes back into one object.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from math import isqrt
from operator import le
from typing import Callable

from .graph import Graph, GraphError
from .triangles import Triangle, TriangleStore, enumerate_triangles

MODE_EXHAUSTIVE = "exhaustive"
MODE_EARLY_STOP = "early-stop"


class EmptyTraceError(GraphError):
    """The graph has no triangles, so the trace has no main iteration."""


@dataclass(frozen=True, eq=False)
class _Removals:
    """Which iteration removed each triangle, shared by a trace's records.

    ``at[k]`` is the index of the iteration that removed the triangle at
    position ``k`` of ``store``; the triangles alive at the start of
    iteration ``i`` are those with ``at >= i``.  ``through[e]`` lists the
    positions of the triangles on edge ``e``, one of the graph's ``m``.
    """

    m: int
    store: TriangleStore
    at: list[int]
    through: dict[int, list[int]]


@dataclass(frozen=True, eq=False, repr=False)
class IterationRecord:
    """One pruning iteration, before its removal is applied.

    ``removed`` is the subset of ``surviving`` touching a minimum-weight
    edge; the next iteration's surviving set is ``surviving`` minus
    ``removed``.  Neither is stored: both are read off the trace's removal
    state on each read, ``surviving`` in O(T) and ``removed`` in the summed
    weights of the minimum edges, whose lists it reads.  ``removed_count`` is
    ``len(removed)``, stored by the peel.  Records compare, hash and print
    by their index, MIN, MAX, minimum edges and removed ids.
    """

    index: int
    min_weight: int
    max_weight: int
    min_edges: tuple[int, ...]
    removed_count: int
    _removals: _Removals

    @property
    def surviving(self) -> tuple[int, ...]:
        r = self._removals
        return tuple(compress(r.store.ids, map(le, repeat(self.index), r.at)))

    @property
    def removed(self) -> tuple[int, ...]:
        r, index = self._removals, self.index
        at, through = r.at, r.through
        ks = sorted({k for e in self.min_edges for k in through[e]
                     if at[k] == index})
        return tuple(map(r.store.ids.__getitem__, ks))

    def _key(self) -> tuple:
        return (self.index, self.min_weight, self.max_weight, self.min_edges,
                self.removed)

    def __eq__(self, other: object) -> bool:
        return (self._key() == other._key() if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return ("IterationRecord(index={}, min_weight={}, max_weight={}, "
                "min_edges={}, removed={})".format(*self._key()))

    def vertices_on(self, edge: int) -> frozenset[int]:
        """The vertices of the surviving triangles on ``edge``: the candidate
        subgraph H of a seed at ``edge``.  They are read off the edge's
        per-edge list in time proportional to its weight, not T."""
        r = self._removals
        ks = [k for k in r.through.get(edge, ()) if r.at[k] >= self.index]
        s = r.store
        return frozenset(chain(map(s.us.__getitem__, ks),
                               map(s.vs.__getitem__, ks),
                               map(s.ws.__getitem__, ks)))


@dataclass(frozen=True)
class Trace:
    """The full iteration history of ``triangles``: all of one graph's, or
    the subset passed to ``full_trace``.  It holds the removal state its
    records share, which ``write_json`` replays."""

    records: tuple[IterationRecord, ...]
    mode: str
    _removals: _Removals = field(repr=False)

    @property
    def triangles(self) -> TriangleStore:
        """The store the trace ran on, whose ids the records name."""
        return self._removals.store

    @property
    def main_index(self) -> int | None:
        """Index of the main iteration: argmax of MIN_i, earliest on ties.

        Under early-stop mode a trace that ended at a MIN=MAX iteration
        uses that final iteration, mirroring the stop-on-equality runs.
        """
        if not self.records:
            return None
        if self.mode == MODE_EARLY_STOP:
            last = self.records[-1]
            if last.min_weight == last.max_weight:
                return last.index
        best = max(self.records, key=lambda r: (r.min_weight, -r.index))
        return best.index

    def main_iteration(self) -> IterationRecord:
        idx = self.main_index
        if idx is None:
            raise EmptyTraceError("trace is empty: the graph has no triangles")
        return self.records[idx]

    def triangle_by_id(self, tid: int) -> Triangle:
        ids = self.triangles.ids
        i = bisect_left(ids, tid)
        if i == len(ids) or ids[i] != tid:
            raise GraphError(f"triangle {tid} is not in this trace")
        return self.triangles[i]

    def to_json_obj(self) -> list[dict]:
        """``json.loads`` of what ``write_json`` writes: one object per
        record, O(records * m).  It is kept for the bench's export probe."""
        chunks: list[str] = []
        self.write_json(chunks.append)
        return json.loads("".join(chunks))

    def write_json(self, write: Callable[[str], object]) -> None:
        """Write the JSON log through ``write``: a list with one object per
        record, its keys ``i``, ``min``, ``max``, ``min_edges``,
        ``removed_ids`` and ``weights``, laid out as ``json.dumps`` lays it
        out.  There is one call per record, then one for the closing bracket.

        The weights are one decrement replay of the removals: each edge's
        count starts at the length of its triangle list, and after a record
        is written the edges of the triangles it removed lose one each.
        Each edge keeps its weight as a string token, and only the tokens of
        the edges a record's removals touched are re-formatted.  The tokens
        are kept joined in blocks of ``isqrt(m)`` tokens; a record re-joins
        only the blocks that hold a changed edge, then joins the O(sqrt(m))
        blocks.  The positions each record removed are grouped from ``at`` in
        one pass first, and memory stays at that grouping, one record and the
        tokens; the trace keeps none of them.
        """
        r = self._removals
        s, m = r.store, r.m
        width = isqrt(m) or 1
        counts = [0] * (m + 1)
        for e, ks in r.through.items():
            counts[e] = len(ks)
        changed = list(r.through)
        tokens = ["0"] * (m + 1)
        blocks = [", ".join(tokens[lo:lo + width]) for lo in range(1, m + 1, width)]
        groups: list[list[int]] = [[] for _ in self.records]
        for k, i in enumerate(r.at):
            groups[i].append(k)
        sep = "["
        for rec, ks in zip(self.records, groups):
            for e in changed:
                tokens[e] = str(counts[e])
            for b in {(e - 1) // width for e in changed}:
                lo = b * width + 1
                blocks[b] = ", ".join(tokens[lo:lo + width])
            write(f'{sep}{{"i": {rec.index}, "min": {rec.min_weight}, '
                  f'"max": {rec.max_weight}, '
                  f'"min_edges": [{", ".join(map(str, rec.min_edges))}], '
                  f'"removed_ids": [{", ".join(map(str, map(s.ids.__getitem__, ks)))}], '
                  f'"weights": [{", ".join(blocks)}]}}')
            sep = ", "
            changed = [*map(s.e1.__getitem__, ks), *map(s.e2.__getitem__, ks),
                       *map(s.e3.__getitem__, ks)]
            for e in changed:
                counts[e] -= 1
        write("[]" if sep == "[" else "]")

def full_trace(
    g: Graph,
    mode: str = MODE_EXHAUSTIVE,
    triangles: TriangleStore | None = None,
) -> Trace:
    """Iterate from the full triangle set until exhaustion and record each step.

    ``mode`` selects which record the trace designates as main (see
    ``Trace.main_index``): ``"exhaustive"`` takes the largest MIN,
    ``"early-stop"`` the first iteration whose MIN equals MAX.  Both modes
    record the same iterations, because a MIN=MAX iteration removes every
    surviving triangle.

    The loop is the bucket-queue peel described in the module docstring.
    ``triangles`` defaults to all of ``g``'s.  A caller may pass a
    ``TriangleStore`` in ascending id order instead, such as
    ``enumerate_triangles(g)`` or a ``take`` of it (the triangles inside a
    vertex subset, say), and the records name the triangles by their ids.
    ``TriangleStore.of`` rejects any other value with ``GraphError``, a
    store with a row that is not a triangle of ``g`` included.
    """
    if mode not in (MODE_EXHAUSTIVE, MODE_EARLY_STOP):
        raise GraphError(f"unknown trace mode {mode!r}")
    store = (enumerate_triangles(g) if triangles is None
             else TriangleStore.of(g, triangles))
    records, removals = _peel(g, store)
    return Trace(records=records, mode=mode, _removals=removals)


def _peel(g: Graph, store: TriangleStore
          ) -> tuple[tuple[IterationRecord, ...], _Removals]:
    """The records of the trace of ``store``, whose rows are triangles of ``g``,
    and the removal state they share.

    Each iteration empties the minimum bucket at once and sets its edges'
    weights to 0, the weight each ends the iteration at, before it removes
    any triangle.  A removed triangle's edges outside the minimum set move
    one bucket down, at most two per triangle, and a minimum edge is never
    moved, so none is left behind in a lower bucket.  The minimum pointer
    falls back when a decrement lands below it, and the maximum pointer only
    moves down.
    """
    bound = g.n * (g.n - 1) * (g.n - 2) // 6
    e1, e2, e3 = store.e1, store.e2, store.e3
    through: defaultdict[int, list[int]] = defaultdict(list)
    for k, a, b, c in zip(count(), e1, e2, e3):
        through[a].append(k)
        through[b].append(k)
        through[c].append(k)
    weight = [0] * (g.m + 1)
    buckets: list[set[int]] = [set() for _ in range(
        max(map(len, through.values()), default=0) + 1)]
    for e, ks in through.items():
        weight[e] = len(ks)
        buckets[len(ks)].add(e)
    lo, hi = 1, len(buckets) - 1

    at = [-1] * len(store)
    removals = _Removals(g.m, store, at, through)
    alive = len(store)
    records: list[IterationRecord] = []
    while alive:
        while not buckets[lo]:
            lo += 1
        while not buckets[hi]:
            hi -= 1
        index = len(records)
        min_weight = lo
        min_edges = sorted(buckets[lo])
        buckets[lo] = set()
        for e in min_edges:
            weight[e] = 0
        before = alive
        for e in min_edges:
            for k in through[e]:
                if at[k] < 0:
                    at[k] = index
                    alive -= 1
                    # Written out three times, not looped over a fresh
                    # (e1[k], e2[k], e3[k]) tuple: this is the peel's inner
                    # step, and the tuple and loop took 7-10% of the peel's
                    # time.  An edge at weight 0 is a minimum edge already
                    # taken out of its bucket, so it is not moved.
                    f = e1[k]
                    w = weight[f]
                    if w:
                        buckets[w].remove(f)
                        w -= 1
                        weight[f] = w
                        if w:
                            buckets[w].add(f)
                            if w < lo:
                                lo = w
                    f = e2[k]
                    w = weight[f]
                    if w:
                        buckets[w].remove(f)
                        w -= 1
                        weight[f] = w
                        if w:
                            buckets[w].add(f)
                            if w < lo:
                                lo = w
                    f = e3[k]
                    w = weight[f]
                    if w:
                        buckets[w].remove(f)
                        w -= 1
                        weight[f] = w
                        if w:
                            buckets[w].add(f)
                            if w < lo:
                                lo = w
        if alive == before:
            raise RuntimeError("pruning removed nothing; invariant violated")
        records.append(IterationRecord(
            index=index,
            min_weight=min_weight,
            max_weight=hi,
            min_edges=tuple(min_edges),
            removed_count=before - alive,
            _removals=removals,
        ))
        if len(records) > bound:
            raise RuntimeError(
                f"trace exceeded its iteration bound {bound}; pruning is stuck")
    return tuple(records), removals
