"""tricliq: triangle-weight pruning heuristic for maximum cliques.

The pipeline enumerates a graph's triangles, iteratively removes the
triangles through minimum-weight edges while logging each iteration, picks
the iteration with the largest minimum weight, and grows a clique from a
minimum-weight edge of that iteration.  Exact oracles (branch and bound,
Bron-Kerbosch, and the Boolean-expansion method of Maghout) are bundled so
every heuristic answer can be checked, and the graph families with
exponentially many cliques are available as generators.
"""

from .extraction import cliques_per_min_edge, extract_max_clique
from .generators import complete, complete_multipartite, moon_moser
from .graph import (
    DuplicateEdgeError,
    EmptyVertexSetError,
    Graph,
    GraphError,
    NonseparabilityReport,
    SelfLoopError,
    VertexRangeError,
    check_nonseparable,
    is_clique,
)
from .io import (
    FormatError,
    format_dimacs,
    format_edge_list,
    load_graph,
    parse_dimacs,
    parse_edge_list,
)
from .oracle import (
    BudgetExceededError,
    OracleResult,
    enumerate_maximal_cliques,
    maghout_cliques,
    max_clique_exact,
)
from .pruning import (
    MODE_EARLY_STOP,
    MODE_EXHAUSTIVE,
    EmptyTraceError,
    full_trace,
)
from .triangles import (
    Triangle,
    enumerate_triangles,
    min_max,
    weight_vectors,
)
from .fixtures import FIXTURE_NAMES, load_fixture

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DuplicateEdgeError",
    "EmptyTraceError",
    "EmptyVertexSetError",
    "FIXTURE_NAMES",
    "FormatError",
    "Graph",
    "GraphError",
    "MODE_EARLY_STOP",
    "MODE_EXHAUSTIVE",
    "NonseparabilityReport",
    "OracleResult",
    "SelfLoopError",
    "Triangle",
    "VertexRangeError",
    "check_nonseparable",
    "cliques_per_min_edge",
    "complete",
    "complete_multipartite",
    "enumerate_maximal_cliques",
    "enumerate_triangles",
    "extract_max_clique",
    "format_dimacs",
    "format_edge_list",
    "full_trace",
    "is_clique",
    "load_fixture",
    "load_graph",
    "maghout_cliques",
    "max_clique_exact",
    "min_max",
    "moon_moser",
    "parse_dimacs",
    "parse_edge_list",
    "weight_vectors",
]
