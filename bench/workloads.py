"""Seeded inputs for the benchmark workloads.

Every graph is made here from the run's seed with ``random.Random`` and
written to a file; the library only ever sees those files.  Each graph keeps
the benchmark's own copy of its edge list (edge id ``j`` is line ``j`` of the
file), so the output checks never rely on the library's parser.

There are two workloads, each the concatenation of two parts (``WORKLOADS``):
``dense-trace`` loads the pruning trace, its JSON export and extraction;
``sparse-oracle`` loads parsing, ``Graph`` construction, triangle listing
and the exact oracles, and barely touches the trace.  Two long runs were
chosen over four short ones because machine speed on a shared 2-vCPU VM
drifts by 20-40% over seconds to minutes: a longer run averages part of it
out, and ``reference.py`` scales the times to a reference speed.

The dense and medium random graphs are fixed structures under a seeded
relabelling: the seed permutes the vertex labels, which renumbers every edge
and triangle and changes the outputs, but keeps the amount of work nearly
fixed.  Independent G(n, m) draws of one size differ by about 10% in
extraction time (20% for ``--all-min-edges``, which follows the number of
minimum-weight edges), and the batches are too short to average that out.
Moon-Moser and complete multipartite graphs keep their generator labelling,
because Maghout's expansion cost depends on the clause order a relabelling
would shuffle.  The sparse graphs are drawn afresh per seed: at their sizes
the draws cost the same.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# Each workload runs the CLI batches of its parts, in this order.
WORKLOADS = {
    "dense-trace": ("dense", "inspect"),
    "sparse-oracle": ("sparse", "validate"),
}
FIXTURES = ("g1", "g2", "g3", "g4", "turan13", "moon_moser_12")

# Seed of the fixed random structures; the run seed only relabels them.
STRUCTURE_SEED = 20241029

# Graph sizes per part.  "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "dense": {"n": [60, 68, 76], "p": 0.5},
        "inspect": {"n": [100], "p": 0.3},
        "sparse": {"n": [5000, 12000], "degree": 10, "planted": [6, 8, 10, 12]},
        "validate": {"moon_moser": [6, 7],
                     "multipartite": [[3, 4, 5, 3, 4], [2, 3, 4, 4, 3, 2, 2]],
                     "sparse_n": 3000, "degree": 10, "planted": [6, 8]},
    },
    "tiny": {
        "dense": {"n": [12, 14], "p": 0.5},
        "inspect": {"n": [16], "p": 0.3},
        "sparse": {"n": [60, 80], "degree": 4, "planted": [5]},
        "validate": {"moon_moser": [3], "multipartite": [[2, 3, 2]],
                     "sparse_n": 50, "degree": 4, "planted": [5]},
    },
}


@dataclass
class GraphFile:
    """One generated input file plus what the benchmark knows about it."""

    name: str
    path: str
    n: int
    edges: list[tuple[int, int]]
    family: str
    # Known clique number (structured families, fixtures); else None.
    omega: int | None = None
    # Vertex sets planted as cliques; their largest size bounds omega below.
    planted: list[list[int]] = field(default_factory=list)
    # Fixture sidecar values, for fixtures only.
    expected: dict | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Op:
    """One CLI call of a batch: ``kind`` picks the output check."""

    kind: str  # "clique" | "trace" | "per-edge" | "validate"
    argv: list[str]
    graph: GraphFile


@dataclass
class Batch:
    graphs: list[GraphFile]
    ops: list[Op]


def gnm(n: int, m: int, rng: random.Random) -> set[tuple[int, int]]:
    """Uniform random simple graph with exactly ``m`` edges on 1..n."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"G({n},{m}) has more edges than pairs")
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return edges


def planted_sparse(n: int, degree: float, sizes: list[int],
                   rng: random.Random) -> tuple[set[tuple[int, int]], list[list[int]]]:
    """Sparse G(n, m) with m = n*degree/2, plus disjoint planted cliques."""
    chosen = rng.sample(range(1, n + 1), sum(sizes))
    cliques = []
    edges: set[tuple[int, int]] = set()
    for k in sizes:
        vs = sorted(chosen[:k])
        chosen = chosen[k:]
        cliques.append(vs)
        edges.update((u, v) for i, u in enumerate(vs) for v in vs[i + 1:])
    m = round(n * degree / 2)
    edges |= gnm(n, max(m - len(edges), 0), rng)
    return edges, cliques


def moon_moser_edges(k: int) -> set[tuple[int, int]]:
    """3k vertices in k independent triads, every cross-triad pair joined."""
    n = 3 * k
    return {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if (u - 1) // 3 != (v - 1) // 3}


def multipartite_edges(parts: list[int]) -> tuple[int, set[tuple[int, int]]]:
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part)
    return n, {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
               if part[u - 1] != part[v - 1]}


def relabel(n: int, edges, rng: random.Random) -> set[tuple[int, int]]:
    """The edges under a random permutation of the labels 1..n."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    label = [0] + perm
    out = set()
    for u, v in edges:
        a, b = label[u], label[v]
        out.add((a, b) if a < b else (b, a))
    return out


def write_graph(path: str, n: int, edges: list[tuple[int, int]], fmt: str) -> None:
    if fmt == "dimacs":
        lines = [f"p edge {n} {len(edges)}"]
        lines.extend(f"e {u} {v}" for u, v in edges)
    else:
        lines = [f"{n} {len(edges)}"]
        lines.extend(f"{u} {v}" for u, v in edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The benchmark's own reader for the plain ``n m`` / ``u v`` format."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(rows[0][0])
    return n, [(int(a), int(b)) for a, b in rows[1:]]


def _graph(out_dir, name, n, edges, family, fmt="edges", **kw) -> GraphFile:
    ordered = sorted(edges)
    path = os.path.join(out_dir, f"{name}.{'dimacs' if fmt == 'dimacs' else 'txt'}")
    write_graph(path, n, ordered, fmt)
    return GraphFile(name=name, path=path, n=n, edges=ordered, family=family, **kw)


def fixed_gnm(n: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    """G(n, m = p*C(n,2)) drawn from STRUCTURE_SEED, relabelled by ``rng``."""
    base = random.Random(f"{STRUCTURE_SEED}:{n}:{p}")
    return relabel(n, gnm(n, round(p * n * (n - 1) / 2), base), rng)


def _dense(cfg, rng, out_dir):
    graphs = [_graph(out_dir, f"gnm{n}", n, fixed_gnm(n, cfg["p"], rng), "gnm")
              for n in cfg["n"]]
    return graphs, [Op("clique", ["clique", g.path, "--json"], g) for g in graphs]


def _sparse(cfg, rng, out_dir):
    graphs = []
    for i, n in enumerate(cfg["n"]):
        edges, cliques = planted_sparse(n, cfg["degree"], cfg["planted"], rng)
        fmt = "dimacs" if i % 2 else "edges"
        graphs.append(_graph(out_dir, f"sparse{n}", n, edges, "sparse", fmt,
                             planted=cliques))
    return graphs, [Op("clique", ["clique", g.path, "--json"], g) for g in graphs]


def _inspect(cfg, rng, out_dir, repo_root):
    graphs = [_graph(out_dir, f"gnm{n}", n, fixed_gnm(n, cfg["p"], rng), "gnm")
              for n in cfg["n"]]
    fixture_dir = os.path.join(repo_root, "src", "tricliq", "fixtures")
    for name in FIXTURES:
        with open(os.path.join(fixture_dir, f"{name}.edges"), encoding="utf-8") as fh:
            n, edges = read_edge_list(fh.read())
        with open(os.path.join(fixture_dir, f"{name}.expected.json"),
                  encoding="utf-8") as fh:
            expected = json.load(fh)
        # Fixture edge ids are published, so fixtures keep their file order.
        path = os.path.join(out_dir, f"fixture_{name}.txt")
        write_graph(path, n, edges, "edges")
        graphs.append(GraphFile(name=f"fixture_{name}", path=path, n=n,
                                edges=edges, family="fixture",
                                omega=expected.get("omega"), expected=expected))
    ops = []
    for g in graphs:
        ops.append(Op("trace", ["trace", g.path, "--json"], g))
        ops.append(Op("per-edge", ["clique", g.path, "--all-min-edges", "--json"], g))
    return graphs, ops


def _validate(cfg, rng, out_dir):
    graphs = []
    for k in cfg["moon_moser"]:
        graphs.append(_graph(out_dir, f"moon_moser{k}", 3 * k, moon_moser_edges(k),
                             "moon-moser", omega=k, params={"k": k}))
    for i, parts in enumerate(cfg["multipartite"]):
        n, edges = multipartite_edges(parts)
        graphs.append(_graph(out_dir, f"multipartite{i}", n, edges, "multipartite",
                             omega=len(parts), params={"parts": parts}))
    n = cfg["sparse_n"]
    edges, cliques = planted_sparse(n, cfg["degree"], cfg["planted"], rng)
    graphs.append(_graph(out_dir, f"sparse{n}", n, edges, "sparse", planted=cliques))
    return graphs, [Op("validate", ["validate", g.path, "--json"], g) for g in graphs]


def build(workload: str, seed: int, out_dir: str, repo_root: str,
          size: str = "full") -> Batch:
    """Generate the workload's files under ``out_dir`` and its CLI batch."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    parts = {
        "dense": lambda cfg: _dense(cfg, rng, out_dir),
        "inspect": lambda cfg: _inspect(cfg, rng, out_dir, repo_root),
        "sparse": lambda cfg: _sparse(cfg, rng, out_dir),
        "validate": lambda cfg: _validate(cfg, rng, out_dir),
    }
    batch = Batch([], [])
    for part in WORKLOADS[workload]:
        graphs, ops = parts[part](SIZES[size][part])
        batch.graphs += graphs
        batch.ops += ops
    return batch
