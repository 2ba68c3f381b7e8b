"""Output checks, written against the benchmark's own copy of each graph.

Every check returns a list of problems; an empty list means the output is
correct.  The only library function used here is ``max_clique_exact``, as
the source of omega where the structure does not fix it.
"""

from __future__ import annotations

import hashlib
import json

from workloads import GraphFile, Op


class Reference:
    """Adjacency sets, per-edge triangle counts and omega for one graph.

    Built lazily and outside the timed region.
    """

    def __init__(self, g: GraphFile):
        self.g = g
        self._adj = None
        self._weights = None
        self._omega = None

    @property
    def adj(self) -> list[set[int]]:
        if self._adj is None:
            adj = [set() for _ in range(self.g.n + 1)]
            for u, v in self.g.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    @property
    def weights(self) -> list[int]:
        """Triangles through each edge, in edge-id order."""
        if self._weights is None:
            adj = self.adj
            self._weights = [len(adj[u] & adj[v]) for u, v in self.g.edges]
        return self._weights

    @property
    def triangle_count(self) -> int:
        return sum(self.weights) // 3

    def is_clique(self, vertices) -> bool:
        vs = list(vertices)
        if not vs or len(set(vs)) != len(vs):
            return False
        if not all(isinstance(v, int) and 1 <= v <= self.g.n for v in vs):
            return False
        adj = self.adj
        return all(v in adj[u] for i, u in enumerate(vs) for v in vs[i + 1:])

    def omega(self) -> int:
        if self._omega is None:
            self._omega = self.g.omega if self.g.omega is not None else self._search()
        return self._omega

    def _search(self) -> int:
        """Exact omega.

        Order vertices by (degree, label).  A clique larger than ``best``
        has a first vertex in that order with at least ``best`` later
        neighbours inside the clique, so only such vertices are searched,
        each on the subgraph of its later neighbours.  Planted cliques give
        the starting ``best``, which leaves few vertices to search on
        sparse graphs.
        """
        from tricliq import Graph, max_clique_exact

        adj = self.adj
        best = 1 if self.g.n else 0
        if self.g.edges:
            best = 2
        for c in self.g.planted:
            if self.is_clique(c):
                best = max(best, len(c))
        order = sorted(range(1, self.g.n + 1), key=lambda v: (len(adj[v]), v))
        rank = [0] * (self.g.n + 1)
        for i, v in enumerate(order):
            rank[v] = i
        for v in order:
            later = sorted(w for w in adj[v] if rank[w] > rank[v])
            if len(later) < best:
                continue
            index = {w: i + 1 for i, w in enumerate(later)}
            pairs = [(index[a], index[b]) for a in later for b in adj[a]
                     if b in index and a < b]
            sub = max_clique_exact(Graph(len(later), pairs)).omega
            best = max(best, sub + 1)
        return best


def _clique_problems(ref: Reference, obj: dict, where: str) -> list[str]:
    problems = []
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or not ref.is_clique(vertices):
        problems.append(f"{where}: {vertices} is not a clique of the input")
        return problems
    if obj.get("size") != len(vertices):
        problems.append(f"{where}: size {obj.get('size')} != {len(vertices)} vertices")
    if obj.get("verified") is not True:
        problems.append(f"{where}: verified is {obj.get('verified')!r}")
    if len(vertices) > ref.omega():
        problems.append(f"{where}: size {len(vertices)} exceeds omega {ref.omega()}")
    return problems


def check_clique(ref: Reference, obj) -> list[str]:
    return _clique_problems(ref, obj, "clique")


def check_per_edge(ref: Reference, obj) -> list[str]:
    problems = []
    by_edge = obj.get("by_edge", {})
    if not by_edge and ref.triangle_count:
        problems.append("per-edge: no extraction although the graph has triangles")
    for edge, result in by_edge.items():
        problems += _clique_problems(ref, result, f"per-edge {edge}")
    distinct = sorted(sorted(r["vertices"]) for r in by_edge.values())
    unique = [v for i, v in enumerate(distinct) if i == 0 or v != distinct[i - 1]]
    if sorted(obj.get("distinct", [])) != unique:
        problems.append("per-edge: distinct does not match the per-edge cliques")
    return problems


def check_trace(ref: Reference, records) -> list[str]:
    """Partition, progress and initial weights; fixture sequences if present."""
    problems = []
    count = ref.triangle_count
    if not records:
        return [] if count == 0 else [f"trace: empty, but {count} triangles exist"]
    removed = [c for r in records for c in r["removed_ids"]]
    if sorted(removed) != list(range(1, count + 1)):
        problems.append(f"trace: removed ids do not partition triangles 1..{count}")
    for r in records:
        if not r["removed_ids"]:
            problems.append(f"trace: iteration {r['i']} removed nothing")
    if records[0]["weights"] != ref.weights:
        problems.append("trace: iteration 0 weights differ from an independent count")
    expected = ref.g.expected or {}
    actual = {
        "min_max_sequence": [[r["min"], r["max"]] for r in records],
        "min_edges_by_iteration": [r["min_edges"] for r in records],
        "removed_by_iteration": [r["removed_ids"] for r in records],
    }
    for key, value in actual.items():
        if key in expected and expected[key] != value:
            problems.append(f"trace: {key} differs from the fixture's expected values")
    return problems


def check_validate(ref: Reference, obj) -> list[str]:
    g = ref.g
    problems = _clique_problems(
        ref,
        {"vertices": obj.get("heuristic_vertices"), "size": obj.get("heuristic_size"),
         "verified": obj.get("heuristic_verified")},
        "validate heuristic")
    if obj.get("omega") != ref.omega():
        problems.append(f"validate: omega {obj.get('omega')} != {ref.omega()}")
    bk, maghout = obj.get("count_maximal"), obj.get("count_maghout")
    if g.family == "moon-moser":
        want = 3 ** g.params["k"]
        if not bk == maghout == want:
            problems.append(f"validate: Bron-Kerbosch {bk}, Maghout {maghout}, "
                            f"3^k = {want} disagree")
    elif g.family == "multipartite":
        want = 1
        for size in g.params["parts"]:
            want *= size
        if not bk == maghout == want:
            problems.append(f"validate: Bron-Kerbosch {bk}, Maghout {maghout}, "
                            f"product of parts {want} disagree")
    return problems


CHECKS = {
    "clique": check_clique,
    "per-edge": check_per_edge,
    "trace": check_trace,
    "validate": check_validate,
}


def canonical(stdout: str) -> str:
    """The output as sorted-key JSON, without the validate timing fields."""
    obj = json.loads(stdout)
    if isinstance(obj, dict):
        obj = {k: v for k, v in obj.items() if not k.startswith("seconds_")}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check_op(op: Op, ref: Reference, rc: int, stdout: str) -> list[str]:
    """All problems with one CLI call's exit code and JSON output."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return CHECKS[op.kind](ref, obj)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"output lacks an expected field: {exc!r}"]


def digest(pairs) -> str:
    """sha256 over (file name, argv flags, canonical output) of a batch."""
    h = hashlib.sha256()
    for op, text in pairs:
        flags = [a for a in op.argv if a != op.graph.path]
        h.update(json.dumps([op.graph.name, flags]).encode())
        h.update(text.encode())
    return h.hexdigest()
