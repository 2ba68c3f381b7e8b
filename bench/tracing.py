"""Spans around the library calls the CLI makes, for the traced run.

The traced run calls ``tricliq.cli.main`` exactly as the timed run does, but
first replaces the library names that ``tricliq.cli`` imported with wrappers
that record one span per call.  Work that happens inside one library call
(the top-level enumeration and trace inside ``extract_max_clique``, the
``Graph`` build inside ``load_graph``) is measured by calling the public
function again on the same input, as a *probe* span.  A probe's run time is
excluded from every span open around it, so the spans of the real calls keep
their true durations, and a parent's self time is its duration minus its
children's, probes included.  The benchmark sets each span's ``scale`` to
its CLI call's factor from ``reference.py``, so durations are in seconds at
reference speed.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

# (metric, unit, better); the per_layer list of BENCHMARK.json.
PER_LAYER = [
    ("io.parse_s", "s", "lower"),
    ("io.input_bytes", "bytes", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.nonsep_s", "s", "lower"),
    ("triangles.enumerate_s", "s", "lower"),
    ("triangles.count", "count", "lower"),
    ("pruning.trace_s", "s", "lower"),
    ("pruning.iterations", "count", "lower"),
    ("pruning.removed_per_iter", "count", "higher"),
    ("pruning.recount_ratio", "ratio", "higher"),
    ("pruning.export_s", "s", "lower"),
    ("pruning.export_bytes", "bytes", "lower"),
    ("pruning.main_s", "s", "lower"),
    ("extraction.extract_s", "s", "lower"),
    ("extraction.self_s", "s", "lower"),
    ("extraction.depth", "levels", "lower"),
    ("extraction.fallback", "count", "lower"),
    ("extraction.seed_subgraph_s", "s", "lower"),
    ("extraction.per_edge_s", "s", "lower"),
    ("extraction.per_edge_count", "count", "lower"),
    ("extraction.omega_gap", "vertices", "lower"),
    ("oracle.bnb_s", "s", "lower"),
    ("oracle.bnb_nodes", "count", "lower"),
    ("oracle.bk_s", "s", "lower"),
    ("oracle.bk_cliques", "count", "lower"),
    ("oracle.maghout_s", "s", "lower"),
    ("oracle.maghout_terms", "count", "lower"),
    ("oracle.budget_exceeded", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("batch.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Layer metric -> span name whose summed durations it reports.
SPAN_TIMES = {
    "io.parse_s": "io.parse",
    "graph.build_s": "graph.build",
    "graph.nonsep_s": "graph.nonsep",
    "triangles.enumerate_s": "triangles.enumerate",
    "pruning.trace_s": "pruning.trace",
    "pruning.export_s": "pruning.export",
    "pruning.main_s": "pruning.main",
    "extraction.extract_s": "extraction.extract",
    "extraction.seed_subgraph_s": "extraction.seed_subgraph",
    "extraction.per_edge_s": "extraction.per_edge",
    "oracle.bnb_s": "oracle.bnb",
    "oracle.bk_s": "oracle.bk",
    "oracle.maghout_s": "oracle.maghout",
}

ROOT = "cli.main"


class Span:
    __slots__ = ("name", "parent", "graph", "probe", "start", "end",
                 "excluded", "scale", "attrs", "error")

    def __init__(self, name, parent, graph, probe):
        self.name = name
        self.parent = parent
        self.graph = graph
        self.probe = probe
        self.start = self.end = 0.0
        self.excluded = 0.0
        self.scale = 1.0
        self.attrs = {}
        self.error = None

    @property
    def duration(self) -> float:
        return (self.end - self.start - self.excluded) * self.scale

    def to_json_obj(self) -> dict:
        return {"name": self.name, "parent": self.parent, "graph": self.graph,
                "probe": self.probe, "start": self.start, "end": self.end,
                "excluded": self.excluded, "scale": self.scale, "attrs": self.attrs,
                "error": self.error}


class Tracer:
    """Spans kept in memory, in call order; ``parent`` is a list index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.graph = None

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._open[-1] if self._open else -1
        s = Span(name, parent, self.graph, probe)
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if probe:
                for i in self._open:
                    self.spans[i].excluded += s.end - s.start


def _wrappers(tracer: Tracer, pairs_by_path: dict):
    """Replacement for each library name that ``tricliq.cli`` calls."""
    from tricliq import Graph
    from tricliq.extraction import (cliques_per_min_edge, extract_max_clique,
                                    subgraph_for_edge)
    from tricliq.graph import check_nonseparable
    from tricliq.io import load_graph
    from tricliq.oracle import (BudgetExceededError, enumerate_maximal_cliques,
                                maghout_cliques, max_clique_exact)
    from tricliq.pruning import full_trace
    from tricliq.triangles import enumerate_triangles

    def probe_enumerate(g):
        with tracer.span("triangles.enumerate", probe=True) as s:
            tris = enumerate_triangles(g)
        s.attrs["count"] = len(tris)
        return tris

    def trace_attrs(s, trace):
        s.attrs.update(iterations=len(trace.records), triangles=len(trace.triangles),
                       surviving=sum(len(r.surviving) for r in trace.records))

    def probe_top_level(g, mode):
        """The steps an extraction makes before its first recursion."""
        tris = probe_enumerate(g)
        if not tris:
            return None, None
        with tracer.span("pruning.trace", probe=True) as s:
            trace = full_trace(g, mode=mode, triangles=tris)
        trace_attrs(s, trace)
        with tracer.span("pruning.main", probe=True):
            record = trace.main_iteration()
        return tris, record

    def w_load_graph(path):
        with tracer.span("io.parse") as s:
            s.attrs["input_bytes"] = os.path.getsize(path)
            n, pairs = pairs_by_path[os.fspath(path)]
            with tracer.span("graph.build", probe=True):
                Graph(n, pairs)
            return load_graph(path)

    def w_check_nonseparable(g):
        with tracer.span("graph.nonsep"):
            return check_nonseparable(g)

    def w_full_trace(g, mode="exhaustive", **kw):
        with tracer.span("pruning.trace") as s:
            probe_enumerate(g)
            trace = full_trace(g, mode=mode, **kw)
        trace_attrs(s, trace)
        with tracer.span("pruning.export", probe=True) as s:
            text = json.dumps(trace.to_json_obj())
        s.attrs["bytes"] = len(text)
        return trace

    def w_extract(g, mode="exhaustive", **kw):
        with tracer.span("extraction.extract") as s:
            tris, record = probe_top_level(g, mode)
            if record is not None:
                with tracer.span("extraction.seed_subgraph", probe=True):
                    subgraph_for_edge(g, record.surviving, record.min_edges[0],
                                      triangles=tris)
            result = extract_max_clique(g, mode=mode, **kw)
        s.attrs.update(depth=[result.recursion_depth],
                       fallback=int(result.fallback_used))
        return result

    def w_per_edge(g, mode="exhaustive"):
        with tracer.span("extraction.per_edge") as s:
            probe_top_level(g, mode)
            result = cliques_per_min_edge(g, mode=mode)
        results = list(result.by_edge.values())
        s.attrs.update(count=len(results),
                       depth=[r.recursion_depth for r in results],
                       fallback=sum(r.fallback_used for r in results))
        return result

    def w_enumerate(g):
        with tracer.span("triangles.enumerate") as s:
            tris = enumerate_triangles(g)
        s.attrs["count"] = len(tris)
        return tris

    def w_bnb(g, **kw):
        with tracer.span("oracle.bnb") as s:
            result = max_clique_exact(g, **kw)
        s.attrs["nodes"] = result.nodes_visited
        return result

    def w_bk(g, **kw):
        with tracer.span("oracle.bk") as s:
            result = enumerate_maximal_cliques(g, **kw)
        s.attrs["cliques"] = len(result)
        return result

    def w_maghout(g, **kw):
        with tracer.span("oracle.maghout") as s:
            try:
                result = maghout_cliques(g, **kw)
            except BudgetExceededError:
                s.attrs["budget_exceeded"] = 1
                raise
        s.attrs["terms"] = len(result)
        return result

    return {
        "load_graph": w_load_graph,
        "check_nonseparable": w_check_nonseparable,
        "full_trace": w_full_trace,
        "extract_max_clique": w_extract,
        "cliques_per_min_edge": w_per_edge,
        "enumerate_triangles": w_enumerate,
        "max_clique_exact": w_bnb,
        "enumerate_maximal_cliques": w_bk,
        "maghout_cliques": w_maghout,
    }


@contextmanager
def instrumented(cli, tracer: Tracer, pairs_by_path: dict):
    """Patch the library names in the ``cli`` module for the ``with`` body."""
    wrappers = _wrappers(tracer, pairs_by_path)
    missing = [name for name in wrappers if not hasattr(cli, name)]
    if missing:
        raise RuntimeError(f"tricliq.cli no longer calls {missing}; "
                           "update the traced run's wrappers")
    saved = {name: getattr(cli, name) for name in wrappers}
    for name, fn in wrappers.items():
        setattr(cli, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one traced batch (all but the batch-level ones)."""
    selfs = self_times(spans)
    m = {metric: 0.0 for metric in SPAN_TIMES}
    by_name = {name: metric for metric, name in SPAN_TIMES.items()}
    for s in spans:
        if s.name in by_name:
            m[by_name[s.name]] += s.duration
    m["extraction.self_s"] = sum(x for s, x in zip(spans, selfs)
                                 if s.name == "extraction.extract")
    m["cli.self_s"] = sum(x for s, x in zip(spans, selfs) if s.name == ROOT)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def first_per_graph(name, key):
        seen = {}
        for s in spans:
            if s.name == name and s.graph not in seen:
                seen[s.graph] = s.attrs.get(key, 0)
        return sum(seen.values())

    m["io.input_bytes"] = total("io.parse", "input_bytes")
    m["triangles.count"] = first_per_graph("triangles.enumerate", "count")
    iterations = first_per_graph("pruning.trace", "iterations")
    removed = first_per_graph("pruning.trace", "triangles")
    surviving = first_per_graph("pruning.trace", "surviving")
    m["pruning.iterations"] = iterations
    m["pruning.removed_per_iter"] = removed / iterations if iterations else 0.0
    m["pruning.recount_ratio"] = removed / surviving if surviving else 0.0
    m["pruning.export_bytes"] = total("pruning.export", "bytes")
    depths = [d for s in spans for d in s.attrs.get("depth", ())]
    m["extraction.depth"] = sum(depths) / len(depths) if depths else 0.0
    m["extraction.fallback"] = (total("extraction.extract", "fallback")
                                + total("extraction.per_edge", "fallback"))
    m["extraction.per_edge_count"] = total("extraction.per_edge", "count")
    m["oracle.bnb_nodes"] = total("oracle.bnb", "nodes")
    m["oracle.bk_cliques"] = total("oracle.bk", "cliques")
    m["oracle.maghout_terms"] = total("oracle.maghout", "terms")
    m["oracle.budget_exceeded"] = total("oracle.maghout", "budget_exceeded")
    return m


def self_by_span(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name, for one traced batch."""
    acc: dict[str, float] = {}
    for s, x in zip(spans, self_times(spans)):
        acc[s.name] = acc.get(s.name, 0.0) + x
    return acc


def breakdown(per_batch: list[dict[str, float]], e2e_s: float):
    """(span name, median self time, share of ``e2e_s``), largest first."""
    names = {name for selfs in per_batch for name in selfs}
    rows = []
    for name in names:
        x = statistics.median(selfs.get(name, 0.0) for selfs in per_batch)
        rows.append((name, x, x / e2e_s if e2e_s else 0.0))
    return sorted(rows, key=lambda r: -r[1])
