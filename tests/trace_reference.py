"""From-scratch pruning trace: the reference the bucket-queue engine is held to.

Every iteration recounts the weight of every edge over the surviving
triangles and rescans all m edges for the minimum, exactly as the iteration
is defined, with no state carried between iterations.  It costs
O(iterations * (T + m)), so the tests run it only on small graphs.

``surviving_weights`` counts each edge over a record's surviving triangles
from scratch.  ``reference_json_obj`` builds the JSON log as one object from
each record's fields and that count, and each record's removed ids from the
difference of its surviving ids and the next record's: ``Trace.write_json``
is held to ``json.dumps`` of it byte for byte.  ``logged_removals`` reads
the removed ids back out of the log, the one place a trace names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from tricliq import (
    MODE_EARLY_STOP,
    Graph,
    GraphError,
    Triangle,
    enumerate_triangles,
    min_max,
)


class EmptyIterationError(GraphError):
    """A pruning step was asked to run on an empty triangle set."""


@dataclass(frozen=True)
class ReferenceRecord:
    index: int
    surviving: tuple[int, ...]
    weights: tuple[int, ...]
    min_weight: int
    max_weight: int
    min_edges: tuple[int, ...]
    removed: tuple[int, ...]


def prune_step(
    g: Graph,
    triangles: Sequence[Triangle],
    current: Iterable[int],
    index: int = 0,
) -> tuple[ReferenceRecord, tuple[int, ...]]:
    """Run a single iteration on the triangle ids in ``current``."""
    ids = sorted(set(current))
    if not ids:
        raise EmptyIterationError("pruning step needs a non-empty triangle set")
    by_id = {t.id: t for t in triangles}
    counts = [0] * g.m
    for c in ids:
        for e in by_id[c].edges:
            counts[e - 1] += 1
    weights = tuple(counts)
    lo, hi = min_max(weights)
    min_edges = tuple(e for e in range(1, g.m + 1) if counts[e - 1] == lo)
    min_set = set(min_edges)
    removed = tuple(c for c in ids if min_set.intersection(by_id[c].edges))
    record = ReferenceRecord(index, tuple(ids), weights, lo, hi, min_edges, removed)
    removed_set = set(removed)
    return record, tuple(c for c in ids if c not in removed_set)


def reference_trace(g: Graph, mode: str) -> list[ReferenceRecord]:
    """Iterate ``prune_step`` until nothing survives; under early-stop mode
    also stop after the first iteration whose MIN equals MAX."""
    triangles = enumerate_triangles(g)
    ids = tuple(t.id for t in triangles)
    records = []
    while ids:
        record, ids = prune_step(g, triangles, ids, len(records))
        records.append(record)
        if mode == MODE_EARLY_STOP and record.min_weight == record.max_weight:
            break
    return records


FIELDS = ("index", "min_weight", "max_weight", "min_edges", "surviving")


def surviving_weights(g: Graph, trace, record) -> tuple[int, ...]:
    """The weight vector at the start of ``record``'s iteration: each edge of
    ``g`` counted over the triangles of ``record.surviving``, from scratch."""
    alive = set(record.surviving)
    s = trace.triangles
    counts = [0] * g.m
    for c, *edges in zip(s.ids, s.e1, s.e2, s.e3):
        if c in alive:
            for e in edges:
                counts[e - 1] += 1
    return tuple(counts)


def logged_removals(trace) -> list[list[int]]:
    """Each record's ``removed_ids``, as the JSON log names them."""
    return [o["removed_ids"] for o in trace.to_json_obj()]


def assert_matches_reference(g: Graph, trace,
                             reference: list[ReferenceRecord]) -> None:
    """Every field of every record, the rebuilt ``surviving`` included,
    equals the reference's, and so does each record's weight vector counted
    over it; so do the JSON export's weights and removed ids, and each
    record's removed count."""
    assert len(trace.records) == len(reference)
    for got, want in zip(trace.records, reference):
        for name in FIELDS:
            assert getattr(got, name) == getattr(want, name), (got.index, name)
        assert got.removed_count == len(want.removed), got.index
        assert surviving_weights(g, trace, got) == want.weights, got.index
    logged = trace.to_json_obj()
    assert [o["weights"] for o in logged] == [list(r.weights) for r in reference]
    assert [o["removed_ids"] for o in logged] == [list(r.removed) for r in reference]


def reference_json_obj(g: Graph, trace) -> list[dict]:
    """One object per record of ``trace``, its weight vector counted afresh
    over the record's surviving triangles, and its removed ids the ones that
    do not survive it: O(records * T)."""
    alive = [r.surviving for r in trace.records] + [()]
    return [{
        "i": r.index,
        "min": r.min_weight,
        "max": r.max_weight,
        "min_edges": list(r.min_edges),
        "removed_ids": sorted(set(before) - set(after)),
        "weights": list(surviving_weights(g, trace, r)),
    } for r, before, after in zip(trace.records, alive, alive[1:])]
