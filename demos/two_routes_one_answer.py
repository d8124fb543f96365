"""Compute every quantity of R_q(G) twice — closed-form transfer formulas
versus direct numerics on the constructed graph — and watch them agree.

Run:  python3 demos/two_routes_one_answer.py
"""
import numpy as np

from trispectra import (
    GraphSummary,
    compute_metrics,
    cycle_graph,
    q_triangulate,
    transfer_hitting,
    transfer_kemeny,
    transfer_kirchhoff,
    transfer_resistance,
)

g = cycle_graph(5)
q = 2
tri = q_triangulate(g, q)
r = tri.result
print(f"base graph: cycle on {g.n} nodes; R_{q}(G) has {r.n} nodes, {r.m} edges")

summary = GraphSummary.from_graph(g)
rep = compute_metrics(r, route="oracle")

# both routes number the nodes of R_q(G) alike: old nodes 1..n, then copy f
# of G's edge e is node n + (f-1)m + e; here copy 1 of edges (1,2), (3,4)
new_12 = tri.new_node_index(g.edges.index((1, 2)) + 1, 1)
new_34 = tri.new_node_index(g.edges.index((3, 4)) + 1, 1)

rows = [
    ("Kemeny's constant", float(transfer_kemeny(q, summary)), rep.kemeny),
    ("Kirchhoff index", float(transfer_kirchhoff(q, summary)), rep.kirchhoff),
    (
        "hitting old 1 -> old 3",
        float(transfer_hitting(q, summary, 1, 3)),
        rep.hitting[1 - 1, 3 - 1],
    ),
    (
        "hitting new{1,2} -> old 4",
        float(transfer_hitting(q, summary, new_12, 4)),
        rep.hitting[new_12 - 1, 4 - 1],
    ),
    (
        "resistance new{1,2} <-> new{3,4}",
        float(transfer_resistance(q, summary, new_12, new_34)),
        rep.resistance[new_12 - 1, new_34 - 1],
    ),
]

print(f"{'quantity':32s} {'formula':>18s} {'oracle':>18s} {'|dev|':>10s}")
for name, formula, oracle in rows:
    print(f"{name:32s} {formula:18.12f} {oracle:18.12f} {abs(formula - oracle):10.2e}")

worst = max(abs(f - o) for _, f, o in rows)
print(f"\nlargest deviation: {worst:.2e}" + ("  (routes agree)" if worst < 1e-8 else ""))
assert worst < 1e-8
