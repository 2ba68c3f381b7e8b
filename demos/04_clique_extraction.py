"""Extracting cliques: direct hits, per-edge variants, and deeper levels.

Once the main iteration is fixed, each minimum-weight edge seeds a candidate
subgraph.  Different seeds can reach different (equally large) cliques, and
a seed whose subgraph is not complete starts another level: the triangles
inside that subgraph are traced again and a new seed is taken from their
main iteration, until the subgraph is complete.  ``depth`` counts the
levels after the first.
"""

from tricliq import (
    cliques_per_min_edge,
    extract_max_clique,
    load_fixture,
    max_clique_exact,
)

print("g3: single extraction")
g3 = load_fixture("g3").graph
r = extract_max_clique(g3)
print(f"  clique {sorted(r.vertices)} size={r.size} seed_edges={list(r.seed_edges)} "
      f"witnesses={len(r.witness_triangles)} depth={r.recursion_depth}")

print("\ng2: one extraction per minimum-weight edge")
g2 = load_fixture("g2").graph
pe = cliques_per_min_edge(g2)
for e, res in pe.by_edge.items():
    print(f"  edge {e:>2} ({'-'.join(map(str, g2.endpoints(e)))}): "
          f"{sorted(res.vertices)}")
print(f"  distinct cliques: {[sorted(s) for s in pe.distinct]}")

print("\ng4: 27 vertices, four overlapping maximum cliques")
g4 = load_fixture("g4").graph
pe4 = cliques_per_min_edge(g4)
print(f"  {len(pe4.by_edge)} minimum-weight edges explored")
for s in pe4.distinct:
    print(f"  {sorted(s)}")

print("\n13-vertex multipartite graph: a second level in action")
t13 = load_fixture("turan13").graph
r13 = extract_max_clique(t13)
print(f"  clique {sorted(r13.vertices)} size={r13.size} "
      f"depth={r13.recursion_depth} seeds={list(r13.seed_edges)}")
print(f"  exact maximum for comparison: {max_clique_exact(t13).omega}")
