"""Two independent exact clique methods used to check the heuristic.

``max_clique_exact`` and ``enumerate_maximal_cliques`` are a bitset
branch-and-bound and a pivoting Bron-Kerbosch enumeration.  ``maghout_cliques``
takes the entirely different Boolean route: expand the product of
(u or v) clauses over the complement's edges, reduce to minimal terms by
absorption, and read each maximal clique off as the complement of a minimal
cover.  Agreement between the routes is part of the test contract, so none
of them may be reimplemented in terms of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph


class BudgetExceededError(RuntimeError):
    """A search or expansion outgrew its explicit budget."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded budget {budget}")
        self.budget = budget


@dataclass(frozen=True)
class OracleResult:
    vertices: frozenset[int]
    omega: int
    nodes_visited: int
    method: str


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def max_clique_exact(g: Graph, budget: int = 10_000_000) -> OracleResult:
    """A maximum clique by branch and bound over degree-ordered candidates."""
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
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
            mask = g.adjacency_mask(v)
            expand(current + [v], [u for u in candidates[i + 1:] if mask >> u & 1])

    expand([], order)
    return OracleResult(frozenset(best), len(best), visited, "branch-and-bound")


def enumerate_maximal_cliques(g: Graph, budget: int = 10_000_000) -> tuple[frozenset[int], ...]:
    """All maximal cliques via Bron-Kerbosch with a max-degree pivot.

    Output is sorted by vertex tuple, so it is a canonical value independent
    of pivot choices.
    """
    adj = [0] * (g.n + 1)
    for v in g.vertices():
        adj[v] = g.adjacency_mask(v)
    found: list[frozenset[int]] = []
    visited = 0

    def bk(r: int, p: int, x: int) -> None:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceededError("maximal-clique enumeration", budget)
        if not p and not x:
            found.append(frozenset(_bits(r)))
            return
        pivot = -1
        pivot_score = -1
        for u in _bits(p | x):
            score = (adj[u] & p).bit_count()
            if score > pivot_score:
                pivot, pivot_score = u, score
        ext = p & ~adj[pivot]
        for v in _bits(ext):
            bit = 1 << v
            bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    all_vertices = ((1 << (g.n + 1)) - 1) & ~1
    bk(0, all_vertices, 0)
    return tuple(sorted(found, key=sorted))


def _absorb_masks(masks: list[int]) -> list[int]:
    """Minimal terms under absorption, each term a vertex bitmask: drop any
    superset of another term; the rest come smallest first."""
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in unique:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def maghout_cliques(g: Graph, clause_budget: int = 30) -> tuple[frozenset[int], ...]:
    """Maximal cliques via Boolean expansion over the complement's edges.

    Each non-edge (u,v) of ``g`` contributes a clause (u or v); the product
    of all clauses, multiplied out with absorption after every step, leaves
    exactly the minimal vertex covers of the complement.  The complement of
    such a cover is a maximal clique.  The expansion is exponential, hence
    the explicit clause budget.
    """
    if g.n * (g.n - 1) // 2 - g.m > clause_budget:
        raise BudgetExceededError("Maghout expansion clauses", clause_budget)
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
        terms = _absorb_masks(expanded)
    full = ((1 << (g.n + 1)) - 1) & ~1
    cliques = [frozenset(_bits(full & ~t)) for t in terms]
    return tuple(sorted(cliques, key=sorted))
