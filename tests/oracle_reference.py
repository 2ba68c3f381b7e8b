"""Plain exact oracles: the references the library's oracles are held to.

``reference_max_clique`` is the branch-and-bound that filters Python lists
of vertex labels, whose top level costs O(n^2).  ``reference_bron_kerbosch``
is the pivoting Bron-Kerbosch over one n-bit neighbour mask per vertex,
indexed by vertex label, and returns its visit count beside the cliques.
The library runs both searches per top-level branch, over that vertex's
(later) neighbours alone, and must visit the same nodes as each.  ``reference_maghout`` multiplies out
the clause product and reduces the whole expanded term list to its minimal
terms after every step with ``absorb_masks``, comparing every pair of terms.
All three define the results and counters the library must keep, so the
tests run them only on small graphs.
"""

from __future__ import annotations

from tricliq import BudgetExceededError, Graph, OracleResult

from graph_reference import degree, neighbors


def reference_max_clique(g: Graph, budget: int = 10_000_000) -> OracleResult:
    """A maximum clique by branch and bound over degree-ordered candidates."""
    order = sorted(g.vertices(), key=lambda v: (-degree(g, v), v))
    best: list[int] = []
    visited = 0

    def expand(current: list[int], candidates: list[int]) -> None:
        nonlocal best, visited
        visited += 1
        if visited > budget:
            raise BudgetExceededError("max-clique search", budget)
        if len(current) > len(best):
            best = list(current)
        for i, v in enumerate(candidates):
            if len(current) + len(candidates) - i <= len(best):
                return
            nbrs = neighbors(g, v)
            expand(current + [v], [u for u in candidates[i + 1:] if u in nbrs])

    expand([], order)
    return OracleResult(frozenset(best), visited)


def reference_bron_kerbosch(
    g: Graph, budget: int = 10_000_000
) -> tuple[tuple[frozenset[int], ...], int]:
    """All maximal cliques, sorted by vertex tuple, and the number of search
    nodes visited, by Bron-Kerbosch over label bitmasks: the pivot is the
    vertex of P | X with the most neighbours in P, lowest label on ties, and
    the branches are taken lowest label first."""
    adj = [0] + [sum(1 << u for u in neighbors(g, v)) for v in g.vertices()]
    found: list[frozenset[int]] = []
    visited = 0

    def bits(mask: int) -> list[int]:
        return [v for v in range(mask.bit_length()) if mask >> v & 1]

    def bk(r: int, p: int, x: int) -> None:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceededError("maximal-clique enumeration", budget)
        if not p and not x:
            found.append(frozenset(bits(r)))
            return
        pivot = max(bits(p | x), key=lambda u: ((adj[u] & p).bit_count(), -u))
        for v in bits(p & ~adj[pivot]):
            bit = 1 << v
            bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    bk(0, sum(1 << v for v in g.vertices()), 0)
    return tuple(sorted(found, key=sorted)), visited


def absorb_masks(masks: list[int]) -> list[int]:
    """Minimal terms under absorption, each term a vertex bitmask: drop any
    superset of another term; the rest come smallest first."""
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in unique:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def reference_maghout(g: Graph) -> tuple[frozenset[int], ...]:
    """Maximal cliques via the clause product over the complement's edges,
    with full absorption of the expanded terms after every clause."""
    clauses = [
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if not g.has_edge(u, v)
    ]
    terms = [0]
    for u, v in clauses:
        bu, bv = 1 << u, 1 << v
        expanded = []
        for t in terms:
            if t & (bu | bv):
                expanded.append(t)
            else:
                expanded.append(t | bu)
                expanded.append(t | bv)
        terms = absorb_masks(expanded)
    cliques = [
        frozenset(v for v in g.vertices() if not t >> v & 1) for t in terms
    ]
    return tuple(sorted(cliques, key=sorted))
