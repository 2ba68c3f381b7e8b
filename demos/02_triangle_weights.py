"""Triangle weight vectors: the quantity everything else is built on.

The weight of an edge is the number of triangles through it.  Inside an
L-clique every edge lies on exactly L-2 of the clique's own triangles, so
heavy edges hint at large cliques and uniquely-light edges can be discarded.
"""

from tricliq import enumerate_triangles, load_fixture, min_max, weight_vectors

g1 = load_fixture("g1")
g = g1.graph
tris = enumerate_triangles(g)
print(f"g1: n={g.n} m={g.m}, {len(tris)} triangles")
print("first three:", *[f"c{t.id}={t.vertices}/e{t.edges}" for t in tris[:3]])

w, wv = weight_vectors(g, tris)
lo, hi = min_max(w)
print(f"\nper-edge weights: {list(w)}")
print(f"MIN={lo} (zeros excluded) MAX={hi}")
lightest = [e for e, c in enumerate(w, start=1) if c == lo]
print(f"lightest edges: {[g.endpoints(e) for e in lightest]}")

# the lightest edges (1,6) and (3,9) straddle the two embedded 5-cliques
# {1..5} and {6..10}; edges inside a 5-clique weigh at least 3
print(f"\nper-vertex weights: {list(wv)}")
print("sum(edge weights) == 3 * triangles:", sum(w) == 3 * len(tris))

t13 = load_fixture("turan13").graph
w13, _ = weight_vectors(t13, enumerate_triangles(t13))
lo13, hi13 = min_max(w13)
print(f"\n13-vertex 3/3/3/4 multipartite: MIN={lo13} MAX={hi13}")
print("edges between two 3-parts weigh 7, edges touching the 4-part weigh 6:")
for e in (1, 7):
    u, v = t13.endpoints(e)
    print(f"  edge {e}=({u},{v}): weight {w13[e - 1]}")
