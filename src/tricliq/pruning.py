"""Iterative removal of triangles through minimum-weight edges.

An edge's weight is the number of surviving triangles through it.  Each
iteration finds the edges whose weight equals the minimum (zeros excluded)
and removes every surviving triangle through such an edge.  This repeats
until nothing survives.  The iteration with the largest minimum weight is
the main iteration; clique extraction starts from it.

The loop is the support-count peel of truss decomposition (Wang & Cheng,
"Truss decomposition in massive networks", PVLDB 2012), and ``full_trace``
runs it the same way: each edge's triangle list is built once, and edges sit
in one bucket per weight.  An iteration takes the minimum bucket, removes the
live triangles on those edges' lists, and moves each of the three edges of a
removed triangle one bucket down.  Every edge list is scanned once, so a
trace costs O(T + m) bucket and list steps plus the sorting of each
iteration's minimum edges and removals, where T is the triangle count.

Records keep only what each iteration decided: MIN, MAX, the minimum edges
and the removed triangles.  An iteration's surviving ids and weight vector
follow from the removals before it; they are rebuilt when read, so a caller
pays for them only when it asks.  The per-edge triangle lists outlive the
peel: they are kept for extraction, which reads a seed edge's surviving
triangles off its list in time proportional to the edge's weight, not T.

The JSON log has one weight vector per record, O(records * m) numbers.
``Trace.to_json_obj`` builds it as one object, which the bench's export
probe and the tests read; ``Trace.write_json`` writes the same bytes one
record at a time, re-formatting only the weights a record's removals
changed, and ``tricliq trace --json`` streams through it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .graph import Graph, GraphError
from .triangles import Triangle, edge_weight_vector, enumerate_triangles

MODE_EXHAUSTIVE = "exhaustive"
MODE_EARLY_STOP = "early-stop"


class EmptyTraceError(GraphError):
    """The graph has no triangles, so the trace has no main iteration."""


class _Removals:
    """Which iteration removed each triangle, shared by a trace's records.

    ``at[k]`` is the index of the iteration that removed ``triangles[k]``;
    the triangles alive at the start of iteration ``i`` are those with
    ``at >= i``.  ``through[e]`` lists the positions of the triangles on
    edge ``e`` in ascending order.
    """

    __slots__ = ("graph", "triangles", "at", "through")

    def __init__(self, graph: Graph, triangles: tuple[Triangle, ...],
                 at: list[int], through: dict[int, list[int]]):
        self.graph = graph
        self.triangles = triangles
        self.at = at
        self.through = through

    def _alive(self, index: int):
        return (t for t, i in zip(self.triangles, self.at) if i >= index)

    def surviving(self, index: int) -> tuple[int, ...]:
        return tuple(t.id for t in self._alive(index))

    def weights(self, index: int) -> tuple[int, ...]:
        return edge_weight_vector(self.graph, self._alive(index))

    def surviving_through(self, index: int, edge: int) -> list[Triangle]:
        at, triangles = self.at, self.triangles
        return [triangles[k] for k in self.through.get(edge, ()) if at[k] >= index]


@dataclass(frozen=True)
class IterationRecord:
    """One pruning iteration, before its removal is applied.

    ``removed`` is the subset of ``surviving`` touching a minimum-weight
    edge; the next iteration's surviving set is ``surviving`` minus
    ``removed``.  ``surviving`` and ``weights`` (counted over ``surviving``)
    are not stored: each read rebuilds them in O(T + m).
    """

    index: int
    min_weight: int
    max_weight: int
    min_edges: tuple[int, ...]
    removed: tuple[int, ...]
    _removals: _Removals = field(compare=False, repr=False)

    @property
    def surviving(self) -> tuple[int, ...]:
        return self._removals.surviving(self.index)

    @property
    def weights(self) -> tuple[int, ...]:
        return self._removals.weights(self.index)

    def surviving_through(self, edge: int) -> list[Triangle]:
        """The surviving triangles on ``edge``, in ascending id order, read
        off the edge's list in time proportional to its starting weight."""
        return self._removals.surviving_through(self.index, edge)


@dataclass(frozen=True)
class Trace:
    """The full iteration history of ``triangles``: all of one graph's, or
    the subset passed to ``full_trace``."""

    records: tuple[IterationRecord, ...]
    mode: str
    triangles: tuple[Triangle, ...] = field(repr=False)

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
            if last.min_weight == last.max_weight and last.min_weight > 0:
                return last.index
        best = max(self.records, key=lambda r: (r.min_weight, -r.index))
        return best.index

    def main_iteration(self) -> IterationRecord:
        idx = self.main_index
        if idx is None:
            raise EmptyTraceError("trace is empty: the graph has no triangles")
        return self.records[idx]

    def min_max_sequence(self) -> list[tuple[int, int]]:
        return [(r.min_weight, r.max_weight) for r in self.records]

    def triangle_by_id(self, tid: int) -> Triangle:
        i = bisect_left(self.triangles, tid, key=attrgetter("id"))
        if i == len(self.triangles) or self.triangles[i].id != tid:
            raise GraphError(f"triangle {tid} is not in this trace")
        return self.triangles[i]

    def _walk(self) -> Iterator[tuple[IterationRecord, list[int], list[int]]]:
        """Each record with the 0-based weight list at its start and the
        positions changed since the previous record.

        One count list serves every record: after a record is yielded, the
        edges of its removed triangles are decremented in place, so a caller
        reads the list before asking for the next record.
        """
        if not self.records:
            return
        counts = list(self.records[0].weights)
        edges_of = {t.id: t.edges for t in self.triangles}
        changed: list[int] = []
        for r in self.records:
            yield r, counts, changed
            changed = [e - 1 for t in r.removed for e in edges_of[t]]
            for i in changed:
                counts[i] -= 1

    def to_json_obj(self) -> list[dict]:
        """One object per record, with a copy of its weight vector.

        The object is O(records * m); the bench's export probe and the tests
        read it.  ``write_json`` writes the same bytes as ``json.dumps`` of
        it without building it.
        """
        return [{
            "i": r.index,
            "min": r.min_weight,
            "max": r.max_weight,
            "min_edges": list(r.min_edges),
            "removed_ids": list(r.removed),
            "weights": list(counts),
        } for r, counts, _ in self._walk()]

    def write_json(self, write: Callable[[str], object]) -> None:
        """Write ``json.dumps(self.to_json_obj())`` through ``write``: one
        call per record, then one for the closing bracket.

        Each edge keeps its weight as a string token, and only the tokens of
        the edges a record's removals touched are re-formatted, so the whole
        log costs O(T + m) int-to-string conversions plus one join per
        record, and memory stays at one record plus the tokens.
        """
        sep = "["
        tokens: list[str] = []
        for r, counts, changed in self._walk():
            if not tokens:
                tokens = list(map(str, counts))
            for i in changed:
                tokens[i] = str(counts[i])
            write(f'{sep}{{"i": {r.index}, "min": {r.min_weight}, '
                  f'"max": {r.max_weight}, '
                  f'"min_edges": [{", ".join(map(str, r.min_edges))}], '
                  f'"removed_ids": [{", ".join(map(str, r.removed))}], '
                  f'"weights": [{", ".join(tokens)}]}}')
            sep = ", "
        write("[]" if sep == "[" else "]")


def full_trace(
    g: Graph,
    mode: str = MODE_EXHAUSTIVE,
    triangles: Sequence[Triangle] | None = None,
) -> Trace:
    """Iterate from the full triangle set until exhaustion and record each step.

    ``mode`` selects which record the trace designates as main (see
    ``Trace.main_index``): ``"exhaustive"`` takes the largest MIN,
    ``"early-stop"`` the first iteration whose MIN equals MAX.  Both modes
    record the same iterations, because a MIN=MAX iteration removes every
    surviving triangle.

    The loop is the bucket-queue peel described in the module docstring:
    the minimum pointer falls back when a decrement lands below it, and the
    maximum pointer only moves down.  ``triangles`` defaults to all of
    ``g``'s; a caller may pass any of them in ascending id order, such as
    those inside a vertex subset, and the records name them by their ids.
    A triangle naming an edge id outside ``1..g.m`` raises ``GraphError``.
    """
    if mode not in (MODE_EXHAUSTIVE, MODE_EARLY_STOP):
        raise GraphError(f"unknown trace mode {mode!r}")
    if triangles is None:
        triangles = enumerate_triangles(g)
    triangles = tuple(triangles)
    bound = g.n * (g.n - 1) * (g.n - 2) // 6

    # triangles are handled by position k in ``triangles`` and reported by id
    through: defaultdict[int, list[int]] = defaultdict(list)
    for k, t in enumerate(triangles):
        for e in t.edges:
            through[e].append(k)
    weight = [0] * (g.m + 1)
    buckets: list[set[int]] = [set() for _ in range(
        max(map(len, through.values()), default=0) + 1)]
    for e, ks in through.items():
        if not 1 <= e <= g.m:
            raise GraphError(f"triangle {triangles[ks[0]].id} references edge "
                             f"{e} outside 1..{g.m}")
        weight[e] = len(ks)
        buckets[len(ks)].add(e)
    lo, hi = 1, len(buckets) - 1

    removed_at = [-1] * len(triangles)
    removals = _Removals(g, triangles, removed_at, through)
    alive = len(triangles)
    records: list[IterationRecord] = []
    while alive:
        while not buckets[lo]:
            lo += 1
        while not buckets[hi]:
            hi -= 1
        index = len(records)
        min_weight = lo
        min_edges = sorted(buckets[lo])
        removed = []
        for e in min_edges:
            for k in through[e]:
                if removed_at[k] < 0:
                    removed_at[k] = index
                    removed.append(k)
        if not removed:
            raise RuntimeError("pruning removed nothing; invariant violated")
        removed.sort()
        for k in removed:
            for e in triangles[k].edges:
                w = weight[e]
                buckets[w].remove(e)
                w -= 1
                weight[e] = w
                if w:
                    buckets[w].add(e)
                    if w < lo:
                        lo = w
        alive -= len(removed)
        records.append(IterationRecord(
            index=index,
            min_weight=min_weight,
            max_weight=hi,
            min_edges=tuple(min_edges),
            removed=tuple(triangles[k].id for k in removed),
            _removals=removals,
        ))
        if len(records) > bound:
            raise RuntimeError(
                f"trace exceeded its iteration bound {bound}; pruning is stuck")
    return Trace(records=tuple(records), mode=mode, triangles=triangles)
