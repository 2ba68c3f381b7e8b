"""Two independent exact clique methods used to check the heuristic.

``max_clique_exact`` and ``enumerate_maximal_cliques`` are a bitset
branch-and-bound and a pivoting Bron-Kerbosch enumeration.  Each call asks
the graph once for its neighbour lists and searches the root's branches
over bitsets from ``_local_masks``, one bit per neighbour of the branch
vertex (per later one in the branch-and-bound), never n bits wide; the
enumeration builds them only for the vertices on a triangle.
``maghout_cliques`` takes the entirely different Boolean route: expand the
product of (u or v) clauses over the complement's edges, one connected
component of the complement at a time, reduce to minimal terms by
absorption, and read each maximal clique off as the complement of a
minimal cover.  Agreement between the routes is part of the test
contract, so none of them may be reimplemented in terms of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import Graph

# the default budgets: visits of either search, and Maghout's clause cap
VISIT_BUDGET = 10_000_000
CLAUSE_BUDGET = 30


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


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _local_masks(labels: Sequence[int], nbrs: Sequence[Sequence[int]],
                 power: Sequence[int]) -> tuple[dict[int, int], list[int]]:
    """Bits for one branch: ``labels[i]`` gets ``power[i]``.  Returns that map
    and, per label, the bits of its ``nbrs`` entry among ``labels``."""
    bit = dict(zip(labels, power))
    local = bit.keys()
    # on a sparse graph most of these vertices share no neighbour
    return bit, [0 if local.isdisjoint(nu) else sum(map(bit.__getitem__, local & nu))
                 for nu in map(nbrs.__getitem__, labels)]


def max_clique_exact(g: Graph, budget: int = VISIT_BUDGET) -> OracleResult:
    """A maximum clique by branch and bound over degree-ordered candidates.

    Vertices are tried in (-degree, label) order, and a branch is cut once
    the current clique plus every remaining candidate cannot beat the best
    found.  The root's branch on v searches v's later neighbours alone, so
    its visits and budget trips are those of one search over all n vertices.
    A branch that the bound cuts at once is counted as its one visit without
    a call.
    """
    nbrs = g._neighbour_lists()
    degree = list(map(len, nbrs))
    # a stable sort keeps equal degrees in label order: (-degree, label)
    order = sorted(g.vertices(), key=degree.__getitem__, reverse=True)
    position = [0] * (g.n + 1)
    for i, v in enumerate(order):
        position[v] = i
    # later[i]: the positions after i of the neighbours of order[i], ascending
    later = [sorted(filter(i.__lt__, map(position.__getitem__, nbrs[v])))
             for i, v in enumerate(order)]
    power = [1 << i for i in range(max(map(len, later)))]
    best: list[int] = []
    visited = 0
    labels: list[int] = []  # the current branch's candidates: later[i]
    adj: list[int] = []  # adj[j]: the bits of later[labels[j]] among labels

    def expand(current: list[int], candidates: int) -> None:
        nonlocal best, visited
        visited += 1
        if visited > budget:
            raise BudgetExceededError("max-clique search", budget)
        if len(current) > len(best):
            best = list(current)
        while candidates:
            if len(current) + candidates.bit_count() <= len(best):
                return
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            expand(current + [labels[i]], candidates & adj[i])

    try:
        expand([], 0)  # the root's visit; its branches follow
        for i, labels in enumerate(later):
            if g.n - i <= len(best):
                break
            if 1 + len(labels) > len(best):
                adj = _local_masks(labels, later, power)[1]
                expand([i], (1 << len(labels)) - 1)
            else:  # expand would cut this branch at its first bound: one visit
                visited += 1
                if visited > budget:
                    raise BudgetExceededError("max-clique search", budget)
    finally:
        # expand reaches itself through its own closure cell; emptying the
        # cell breaks that cycle, so reference counting frees the closure
        # and its state on every exit, a budget trip included, with no
        # help from the cyclic collector
        del expand
    return OracleResult(frozenset(map(order.__getitem__, best)), len(best),
                        visited)


def enumerate_maximal_cliques(g: Graph, budget: int = VISIT_BUDGET) -> tuple[frozenset[int], ...]:
    """All maximal cliques via Bron-Kerbosch with a max-degree pivot.

    At the root P holds every vertex, so the pivot is a vertex of highest
    degree, lowest label on ties, and the root branches on the vertices
    outside its neighbourhood, lowest first.  Each such branch v searches
    only N(v), in label order: P and X are bitsets over it, and R is a tuple
    of labels.  Before the root's loop, one pass over the neighbour lists
    finds the vertices on a triangle, testing each edge once for a common
    neighbour from its end of higher degree, as in the listing of Chiba &
    Nishizeki (1985), so each test scans the other end's shorter list.
    Only their branches build bitsets.  A branch whose N(v) holds no
    edge (v is on no triangle) is settled in one step: its maximal cliques
    are v's edges to the vertices not yet searched, or {v} alone.  So every
    pivot, visit and budget trip is that of the search over all vertex
    labels.

    Output is sorted by vertex tuple, so it is a canonical value independent
    of pivot choices.
    """
    nbrs = g._neighbour_lists()
    found: list[tuple[int, ...]] = []
    visited = 1  # the root
    if visited > budget:
        raise BudgetExceededError("maximal-clique enumeration", budget)
    labels: list[int] = []  # the current branch's neighbours, ascending
    adj: list[int] = []  # adj[i]: the neighbours of labels[i] among labels

    def bk(r: tuple[int, ...], p: int, x: int) -> None:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceededError("maximal-clique enumeration", budget)
        if not p and not x:
            found.append(tuple(sorted(r)))
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
            bk(r + (labels[v],), p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    # on_triangle[v]: v is on a triangle, i.e. N(v) holds an edge.  The
    # vertices are passed in (degree, label) order, and each edge is tested
    # once, from its later end u, so ``isdisjoint`` scans the shorter list:
    # O(arboricity * m) in all, where label order is quadratic on a star
    degree = list(map(len, nbrs))
    on_triangle = bytearray(g.n + 1)
    passed = bytearray(g.n + 1)
    for u in sorted(range(1, g.n + 1), key=degree.__getitem__):
        passed[u] = 1
        local = set(nbrs[u])
        for v in nbrs[u]:
            if passed[v] and not local.isdisjoint(nbrs[v]):
                on_triangle[u] = on_triangle[v] = 1
    top = max(degree)
    power = [1 << i for i in range(top)]
    skip = set(nbrs[degree.index(top, 1)])  # the root's pivot's neighbours
    done: set[int] = set()  # the root's X: branch vertices already searched
    try:
        for v in range(1, g.n + 1):
            if v in skip:
                continue
            labels = sorted(nbrs[v])
            if on_triangle[v]:
                bit, adj = _local_masks(labels, nbrs, power)
                x = sum(map(bit.__getitem__, bit.keys() & done))
                bk((v,), ((1 << len(labels)) - 1) ^ x, x)
            else:
                # no edge inside N(v): bk would visit this branch and then
                # one leaf per neighbour w not yet searched, each the
                # maximal clique {v, w}, or the leaf {v} if v is isolated
                ws = [w for w in labels if w not in done]
                visited += 1 + len(ws)
                if visited > budget:
                    raise BudgetExceededError("maximal-clique enumeration", budget)
                if labels:
                    found.extend((w, v) if w < v else (v, w) for w in ws)
                else:
                    found.append((v,))
            done.add(v)
    finally:
        # as in max_clique_exact: bk's cell holds bk, and through it the
        # whole ``found`` list; emptying it frees them without the collector
        del bk
    found.sort()
    return tuple(map(frozenset, found))


def maghout_cliques(g: Graph, clause_budget: int = CLAUSE_BUDGET) -> tuple[frozenset[int], ...]:
    """Maximal cliques via Boolean expansion over the complement's edges.

    Each non-edge (u,v) of ``g`` contributes a clause (u or v); the product
    of all clauses, multiplied out with absorption after every step, leaves
    exactly the minimal vertex covers of the complement.  The complement of
    such a cover is a maximal clique.

    The product is expanded once per connected component of the complement,
    and the components' covers are combined by pairwise OR.  Clauses of
    different components share no vertex, so the minimal covers of the
    whole are exactly the unions of one minimal cover per component.  No
    absorption is needed across components: one union inside another would
    be so on each component's vertices, where the covers form an antichain.
    Within a component the terms before a step are an antichain, so
    absorption only has to check each new term against the terms the step
    keeps unchanged.  The expansion is exponential in a component's size,
    hence the explicit clause budget, which counts the clauses of all of
    them.
    """
    if g.n * (g.n - 1) // 2 - g.m > clause_budget:
        raise BudgetExceededError("Maghout expansion clauses", clause_budget)
    clauses = g.complement().edges
    parent = list(range(g.n + 1))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in clauses:
        parent[root(u)] = root(v)
    components: dict[int, list[tuple[int, int]]] = {}
    for u, v in clauses:
        components.setdefault(root(u), []).append((u, v))
    terms = [0]
    for component in components.values():
        covers = _minimal_covers(component)
        terms = [t | c for t in terms for c in covers]
    full = ((1 << (g.n + 1)) - 1) & ~1
    cliques = [tuple(_bits(full & ~t)) for t in terms]
    cliques.sort()
    return tuple(map(frozenset, cliques))


def _minimal_covers(clauses: Sequence[tuple[int, int]]) -> list[int]:
    """The minimal terms of the product of (u or v) over ``clauses``, each a
    vertex bitmask, multiplied out one clause at a time."""
    terms = [0]
    for u, v in clauses:
        bu, bv = 1 << u, 1 << v
        # terms is an antichain of minimal terms.  A term meeting {u, v}
        # stays minimal; a split term t|u can only be absorbed by a kept term
        # k that holds u, i.e. when k without u lies inside t (likewise v).
        kept = [t for t in terms if t & (bu | bv)]
        rest_u = [k ^ bu for k in kept if k & bu]
        rest_v = [k ^ bv for k in kept if k & bv]
        for t in terms:
            if not t & (bu | bv):
                if not any(r & t == r for r in rest_u):
                    kept.append(t | bu)
                if not any(r & t == r for r in rest_v):
                    kept.append(t | bv)
        terms = kept
    return terms
