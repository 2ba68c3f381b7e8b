"""The pruning iteration, step by step, on the 12-vertex worked example.

Each iteration recomputes edge weights over the surviving triangles and
deletes every triangle that touches a minimum-weight edge.  The iteration
with the largest minimum is the main iteration; here it is the final one,
where the ten surviving triangles are exactly the C(5,3) triangles of the
hidden 5-clique.
"""

from tricliq import MODE_EARLY_STOP, full_trace, load_fixture

g3 = load_fixture("g3").graph
trace = full_trace(g3, mode=MODE_EARLY_STOP)

print(f"g3: n={g3.n} m={g3.m}")
print(f"{'i':>2} {'MIN':>4} {'MAX':>4} {'alive':>6} {'cut':>5}  min-weight edges")
for r in trace.records:
    print(f"{r.index:>2} {r.min_weight:>4} {r.max_weight:>4} "
          f"{len(r.surviving):>6} {r.removed_count:>5}  {list(r.min_edges)}")

main = trace.main_iteration()
print(f"\nmain iteration: {main.index} (MIN={main.min_weight})")
print(f"surviving triangle ids: {list(main.surviving)}")
# the whole listing numbers its triangles 1..T: triangle c sits at c - 1
verts = sorted({v for c in main.surviving
                for v in trace.triangles[c - 1].vertices})
print(f"vertices spanned by the survivors: {verts}")
