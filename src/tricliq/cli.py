"""Command-line front end: generate, trace, clique, oracle, validate.

Exit codes: 0 success, 1 input error, 2 budget exceeded, out of memory or
recursion too deep, 3 internal invariant violation.

Each command runs with CPython's cyclic garbage collector paused, and
``main`` restores the collector's state on every exit.  The pipeline builds
large acyclic structures (the edge index, neighbour lists, triangle columns
and per-edge lists), and the collector would rescan them every few hundred
allocations without finding any garbage: about a tenth of a command's time
on a sparse graph.  Reference counting alone frees everything a command
leaves, because the library makes no reference cycles; the tests hold every
command, error exits included, to leaving nothing for ``gc.collect()``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from functools import cache

from .extraction import CliqueResult, cliques_per_min_edge, extract_max_clique
from .generators import complete, complete_multipartite, moon_moser
from .graph import Graph, GraphError, check_nonseparable
from .io import format_dimacs, format_edge_list, load_graph
from .oracle import (
    CLAUSE_BUDGET,
    VISIT_BUDGET,
    BudgetExceededError,
    enumerate_maximal_cliques,
    maghout_cliques,
    max_clique_exact,
)
from .pruning import MODE_EARLY_STOP, MODE_EXHAUSTIVE, full_trace
from .triangles import enumerate_triangles, weight_vectors


def _warn_if_separable(g: Graph) -> None:
    report = check_nonseparable(g)
    if not report.is_nonseparable:
        print(
            "warning: graph is not nonseparable "
            f"(connected={report.connected}, bridge={report.has_bridge}, "
            f"articulation={report.has_articulation_point}, "
            f"min_degree={report.min_degree}); results may degrade",
            file=sys.stderr,
        )


def _int_param(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphError(f"expected an integer parameter, got {text!r}") from None


def _budget(text: str) -> int:
    """A budget option: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def cmd_generate(args) -> int:
    if args.family == "complete":
        g = complete(_int_param(args.params))
    elif args.family == "moon-moser":
        g = moon_moser(_int_param(args.params))
    else:
        parts = [_int_param(p) for p in args.params.split(",") if p.strip()]
        g = complete_multipartite(parts)
    text = format_dimacs(g) if args.format == "dimacs" else format_edge_list(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_triangles(g: Graph, args) -> int:
    tris = enumerate_triangles(g)
    if args.json:
        edge_weights, vertex_weights = weight_vectors(g, tris)
        print(json.dumps({
            "count": len(tris),
            "triangles": [{"id": t.id, "vertices": t.vertices,
                           "edges": t.edges} for t in tris],
            "edge_weights": edge_weights,
            "vertex_weights": vertex_weights,
        }))
        return 0
    print(f"{len(tris)} triangles")
    for t in tris:
        print(f"c{t.id}: vertices {t.vertices} edges {t.edges}")
    return 0


def cmd_trace(g: Graph, args) -> int:
    _warn_if_separable(g)
    trace = full_trace(g, mode=args.mode)
    if args.json:
        trace.write_json(sys.stdout.write)
        sys.stdout.write("\n")
        return 0
    print("i  MIN  MAX  surviving  min_edges")
    if not trace.records:
        print("warning: graph has no triangles; nothing to trace",
              file=sys.stderr)
        return 0
    alive = len(trace.triangles)
    for r in trace.records:
        edges = ",".join(map(str, r.min_edges))
        print(f"{r.index}  {r.min_weight}  {r.max_weight}  "
              f"{alive}  {edges}")
        alive -= r.removed_count
    print(f"main iteration: {trace.main_iteration().index}")
    return 0


def _clique_json(r: CliqueResult) -> dict:
    """The JSON object of one extraction result."""
    return {
        "vertices": sorted(r.vertices),
        "size": r.size,
        "seed_edges": list(r.seed_edges),
        "depth": r.recursion_depth,
        "verified": r.is_verified_clique,
        "degenerate": r.degenerate,
        "fallback_used": False,  # H shrinks at every level: no fallback
    }


def cmd_clique(g: Graph, args) -> int:
    _warn_if_separable(g)
    if args.all_min_edges:
        per_edge = cliques_per_min_edge(g, mode=args.mode)
        if args.json:
            print(json.dumps({
                "by_edge": {str(e): _clique_json(r)
                            for e, r in per_edge.by_edge.items()},
                "distinct": [sorted(s) for s in per_edge.distinct],
            }))
            return 0
        for e, r in per_edge.by_edge.items():
            print(f"edge {e}: size {r.size} {sorted(r.vertices)} "
                  f"verified={r.is_verified_clique}")
        print(f"distinct cliques: {[sorted(s) for s in per_edge.distinct]}")
        return 0
    result = extract_max_clique(g, mode=args.mode)
    if args.json:
        print(json.dumps(_clique_json(result)))
    else:
        print(f"clique of size {result.size}: {sorted(result.vertices)}")
        print(f"verified={result.is_verified_clique} "
              f"degenerate={result.degenerate} depth={result.recursion_depth} "
              f"seed_edges={list(result.seed_edges)}")
    return 0


def cmd_oracle(g: Graph, args) -> int:
    if args.method == "maghout":
        cliques = maghout_cliques(g, clause_budget=args.budget)
        payload = {
            "omega": max((len(c) for c in cliques), default=0),
            "count_maximal": len(cliques),
            "method": "maghout",
            "nodes_visited": None,
        }
    else:
        exact = max_clique_exact(g, budget=args.budget)
        cliques = enumerate_maximal_cliques(g, budget=args.budget)
        payload = {
            "omega": exact.omega,
            "count_maximal": len(cliques),
            "method": "branch-and-bound/bron-kerbosch",
            "nodes_visited": exact.nodes_visited,
        }
    if args.json:
        print(json.dumps(payload))
    else:
        print(" ".join(f"{k}={v}" for k, v in payload.items()))
    return 0


def cmd_validate(g: Graph, args) -> int:
    t0 = time.perf_counter()
    triangles = enumerate_triangles(g)
    heuristic = extract_max_clique(g, triangles=triangles)
    t_heuristic = time.perf_counter() - t0
    report: dict = {
        "n": g.n,
        "m": g.m,
        "triangles": len(triangles),
        "heuristic_size": heuristic.size,
        "heuristic_vertices": sorted(heuristic.vertices),
        "heuristic_verified": heuristic.is_verified_clique,
        "seconds_heuristic": round(t_heuristic, 6),
    }
    budget_hit = False

    t0 = time.perf_counter()
    try:
        exact = max_clique_exact(g, budget=args.budget)
        report["omega"] = exact.omega
        report["nodes_visited"] = exact.nodes_visited
    except BudgetExceededError as exc:
        report["omega"] = None
        report["omega_error"] = str(exc)
        budget_hit = True
    report["seconds_exact"] = round(time.perf_counter() - t0, 6)

    t0 = time.perf_counter()
    try:
        maximal = enumerate_maximal_cliques(g, budget=args.budget)
        report["count_maximal"] = len(maximal)
    except BudgetExceededError as exc:
        report["count_maximal"] = None
        report["count_error"] = str(exc)
        budget_hit = True
    report["seconds_enumeration"] = round(time.perf_counter() - t0, 6)

    try:
        mag = maghout_cliques(g, clause_budget=args.maghout_budget)
        report["count_maghout"] = len(mag)
    except BudgetExceededError as exc:
        report["count_maghout"] = None
        report["maghout_error"] = str(exc)

    if report["omega"] is not None:
        report["agree"] = report["heuristic_size"] == report["omega"]
    else:
        report["agree"] = None

    if args.json:
        print(json.dumps(report))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    return 2 if budget_hit else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parsing leaves it unchanged, so calls of ``main`` in one process reuse
    it."""
    parser = argparse.ArgumentParser(
        prog="tricliq",
        description="Triangle-weight clique heuristic, exact oracles, "
                    "and graph-family generators.",
    )
    # each option that several commands share is declared once, here
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("input")
    graph.add_argument("--json", action="store_true")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=[MODE_EXHAUSTIVE, MODE_EARLY_STOP],
                      default=MODE_EXHAUSTIVE)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_budget, default=VISIT_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated graph")
    p.add_argument("family", choices=["complete", "moon-moser", "multipartite"])
    p.add_argument("params", help="n, k, or comma-separated part sizes")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--format", choices=["edges", "dimacs"], default="edges")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("triangles", parents=[graph],
                       help="list triangles and weight vectors")
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("trace", parents=[graph, mode],
                       help="print the pruning iteration table")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("clique", parents=[graph, mode],
                       help="run the heuristic extraction")
    p.add_argument("--all-min-edges", action="store_true",
                   help="one extraction per minimum-weight edge")
    p.set_defaults(func=cmd_clique)

    p = sub.add_parser("oracle", parents=[graph, budget], help="run an exact method")
    p.add_argument("--method", choices=["search", "maghout"], default="search")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", parents=[graph, budget],
                       help="heuristic vs. exact oracles")
    p.add_argument("--maghout-budget", type=_budget, default=CLAUSE_BUDGET)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    enabled = gc.isenabled()
    gc.disable()
    try:
        if "input" in args:  # every command but generate reads a graph
            return args.func(load_graph(args.input), args)
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        # a subclass of RuntimeError, so it must be caught first
        print("error: input too large: recursion limit exceeded",
              file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
