"""The library makes no reference cycles, so the CLI can run it with the
cyclic collector paused (see ``tricliq.cli``) and leave no garbage behind.

Each case runs one library call under ``cyclic_garbage``, which counts what
only the collector could free.  Budget trips and rejected input count too:
an exception's traceback holds the frames it passed through, so a frame
that keeps the exception, or a closure that keeps itself, is a cycle.
"""

import pytest

from tricliq import (
    BudgetExceededError,
    Graph,
    GraphError,
    cliques_per_min_edge,
    enumerate_maximal_cliques,
    extract_max_clique,
    full_trace,
    maghout_cliques,
    max_clique_exact,
    moon_moser,
)
from tricliq.io import loads

from conftest import cyclic_garbage, gnp


def raises(error, call, *args, **kwargs):
    """``call(*args, **kwargs)``, which must raise ``error``; nothing of the
    exception is kept (``pytest.raises`` would keep its traceback)."""
    try:
        call(*args, **kwargs)
    except error:
        return
    raise AssertionError(f"{call.__name__} did not raise {error.__name__}")


MM6 = moon_moser(6)
G30 = gnp(30, 0.5, 1)
C8 = Graph(8, [(v, v % 8 + 1) for v in range(1, 9)])
# test_oracle.py's graph for a branch cut at its first bound
CUT7 = Graph(7, [(1, 2), (1, 3), (2, 3), (4, 5), (6, 7)])
# test_oracle.py's graph for settled branches: K_4 on 1..4, the star 5-6..9,
# the path 10-11-12 and the isolated 13
MIXED13 = Graph(13, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                     (5, 6), (5, 7), (5, 8), (5, 9), (10, 11), (11, 12)])

CALLS = {
    "full_trace": lambda: full_trace(G30),
    "extract_max_clique": lambda: extract_max_clique(G30),
    "cliques_per_min_edge": lambda: cliques_per_min_edge(G30),
    "max_clique_exact": lambda: max_clique_exact(MM6),
    "enumerate_maximal_cliques": lambda: enumerate_maximal_cliques(MM6),
    "maghout_cliques": lambda: maghout_cliques(moon_moser(3)),
    # a trip deep in each search, and Maghout's up-front clause count
    "max_clique_exact-budget": lambda: raises(
        BudgetExceededError, max_clique_exact, MM6, budget=3),
    "enumerate_maximal_cliques-budget": lambda: raises(
        BudgetExceededError, enumerate_maximal_cliques, MM6, budget=3),
    # trips where each search counts visits without a call: inside C_8's
    # first branch, which has no edge inside N(1), and on the 7-vertex
    # graph's branch on 2, which the bound cuts at once
    "enumerate_maximal_cliques-budget-settled-branch": lambda: raises(
        BudgetExceededError, enumerate_maximal_cliques, C8, budget=3),
    # on one graph with both kinds of branch: inside the branch on 1, whose
    # vertex is on a triangle, and inside the one on 5 (visits 9-13), settled
    "enumerate_maximal_cliques-budget-flagged-branch": lambda: raises(
        BudgetExceededError, enumerate_maximal_cliques, MIXED13, budget=3),
    "enumerate_maximal_cliques-budget-mixed-settled-branch": lambda: raises(
        BudgetExceededError, enumerate_maximal_cliques, MIXED13, budget=10),
    "max_clique_exact-budget-cut-branch": lambda: raises(
        BudgetExceededError, max_clique_exact, CUT7, budget=5),
    "maghout_cliques-budget": lambda: raises(
        BudgetExceededError, maghout_cliques, MM6, clause_budget=3),
    "graph-vertex-range": lambda: raises(GraphError, Graph, 3, [(1, 2), (1, 4)]),
    "graph-self-loop": lambda: raises(GraphError, Graph, 3, [(1, 2), (3, 3)]),
    "graph-duplicate-edge": lambda: raises(GraphError, Graph, 3, [(1, 2), (2, 1)]),
    "graph-malformed-pair": lambda: raises(GraphError, Graph, 3, [(1, 2), (3,)]),
    # the bulk parser gives up on a rejected pair, then the line parser
    # rejects it again and names its line
    "loads-duplicate-edge": lambda: raises(GraphError, loads, "3 2\n1 2\n2 1\n"),
    "loads-dimacs-duplicate-edge": lambda: raises(
        GraphError, loads, "p edge 3 2\ne 1 2\ne 2 1\n"),
}


@pytest.mark.parametrize("name", CALLS)
def test_library_calls_leave_no_cyclic_garbage(name):
    assert cyclic_garbage(CALLS[name]) == 0
