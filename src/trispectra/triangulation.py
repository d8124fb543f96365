"""The q-triangulation operation and its iterates.

For every edge {s, t} of G, R_q(G) adds q new degree-2 nodes, each
adjacent to both s and t.  The new node for (edge e, copy f) receives
index n + (f-1)*m + e, so the adjacency matrix of the result has the
block structure [[A, B, ..., B], [B^T, 0, ...], ...] with q incidence
blocks, and spectrum-lift tests are index-aligned for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GraphError, InvalidNodeRefError, check_k, check_q, is_index
from .graph import Graph, build_graph


@dataclass(frozen=True)
class TriangulationResult:
    """R_q(G) together with the provenance of every new node.

    Attributes
    ----------
    result : Graph
        The constructed graph on n + m*q nodes.
    base : Graph
        The input graph G.
    q : int
    provenance : dict
        new node index -> (generator edge index e in 1..m, copy f in 1..q).
    """

    result: Graph
    base: Graph
    q: int
    provenance: dict

    @property
    def new_nodes(self) -> range:
        return range(self.base.n + 1, self.base.n + self.base.m * self.q + 1)

    def new_node_index(self, edge: int, copy: int) -> int:
        """Index of the new node of generator edge 1..m and copy 1..q."""
        if not (is_index(edge, self.base.m) and is_index(copy, self.q)):
            raise InvalidNodeRefError(
                f"no new node for edge {edge!r}, copy {copy!r} of R_{self.q}(G)"
            )
        return self.base.n + (copy - 1) * self.base.m + edge


def q_triangulate(g: Graph, q: int) -> TriangulationResult:
    """Construct R_q(G)."""
    q = check_q(q)
    n, m = g.n, g.m
    edges = list(g.edges)
    provenance = {}
    for f in range(1, q + 1):
        for e, (s, t) in enumerate(g.edges, start=1):
            x = n + (f - 1) * m + e
            edges.append((s, x))
            edges.append((t, x))
            provenance[x] = (e, f)
    result = build_graph(n + m * q, edges)
    return TriangulationResult(result=result, base=g, q=q, provenance=provenance)


def iterate_triangulation(g: Graph, q: int, k: int) -> list:
    """Apply q-triangulation k times; element j is R_{q,j+1}(G)."""
    q = check_q(q)
    k = check_k(k)
    out = []
    current = g
    for _ in range(k):
        step = q_triangulate(current, q)
        out.append(step)
        current = step.result
    return out


def predicted_counts(n: int, m: int, q: int, k: int):
    """Exact node/edge counts of R_{q,k}(G) without construction.

    m_{q,k} = (2q+1)^k m and n_{q,k} = m[(2q+1)^k - 1]/2 + n; the second
    is integral because (2q+1)^k - 1 is even.
    """
    if not (is_index(n, math.inf) and is_index(m, math.inf)):
        raise GraphError(f"node and edge counts must be positive integers, got {n!r}, {m!r}")
    q = check_q(q)
    k = check_k(k)
    growth = (2 * q + 1) ** k
    n, m = int(n), int(m)
    return m * (growth - 1) // 2 + n, growth * m
