"""The q-triangulation operation and its iterates.

For every edge {s, t} of G, R_q(G) adds q new degree-2 nodes, each
adjacent to both s and t.  The new node for (edge e, copy f) receives
index n + (f-1)*m + e, so the adjacency matrix of the result has the
block structure [[A, B, ..., B], [B^T, 0, ...], ...] with q incidence
blocks, and spectrum-lift tests are index-aligned for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MAX_NODES, InvalidNodeRefError, check_k, check_q, check_size, is_index,
)
from .graph import Graph


@dataclass(frozen=True)
class TriangulationResult:
    """R_q(G) and the graph G it was built from.

    Attributes
    ----------
    result : Graph
        The constructed graph on n + m*q nodes.
    base : Graph
        The input graph G.
    q : int
    provenance : numpy.ndarray
        (mq, 3) int64 rows (x, e, f) in x order: new node x is copy f of edge e.
    """

    result: Graph
    base: Graph
    q: int

    def new_node_index(self, edge: int, copy: int) -> int:
        """Index of the new node of generator edge 1..m and copy 1..q."""
        if not (is_index(edge, self.base.m) and is_index(copy, self.q)):
            raise InvalidNodeRefError(
                f"no new node for edge {edge!r}, copy {copy!r} of R_{self.q}(G)"
            )
        return self.base.n + (copy - 1) * self.base.m + edge

    @property
    def provenance(self) -> np.ndarray:
        f, e = np.divmod(np.arange(self.base.m * self.q), self.base.m)
        return np.column_stack((self.base.n + 1 + f * self.base.m + e, e + 1, f + 1))


def new_node_generator(n: int, m: int, q: int, x) -> tuple:
    """(generator edge e in 1..m, copy f in 1..q) of new node x of R_q(G),
    for G on n nodes and m edges; the inverse of new_node_index."""
    if not is_index(x, n + m * q) or x <= n:
        raise InvalidNodeRefError(f"{x!r} is not a new node {n + 1}..{n + m * q} of R_{q}(G)")
    f, e = divmod(int(x) - n - 1, m)
    return e + 1, f + 1


def q_triangulate(g: Graph, q: int) -> TriangulationResult:
    """Construct R_q(G).

    The endpoint array of R_q(G) comes straight from G's: G's edges,
    then (s, x) and (t, x) for each new node x of edge {s, t}, lexsorted;
    no edge tuple is built.  R_q(G) of a valid G is simple and connected,
    so build_graph's per-edge validation is skipped.  R_q(G)'s n + mq nodes
    must lie within the array bound ``errors.MAX_NODES``.
    """
    q = check_q(q)
    n, m = g.n, g.m
    check_size(n + m * q, MAX_NODES, "q_triangulate")
    # copy f of edge e is node n + (f-1)m + e: copies of G's edge list in turn
    new = np.arange(n, n + m * q)
    s, t = np.tile(g._ends.T, q)
    ends = np.concatenate([g._ends, np.column_stack((s, new)), np.column_stack((t, new))])
    ends = ends[np.lexsort(ends.T[::-1])]
    return TriangulationResult(result=Graph(n=n + m * q, _ends=ends), base=g, q=q)


def iterate_triangulation(g: Graph, q: int, k: int) -> list:
    """Apply q-triangulation k times; element j is R_{q,j+1}(G)."""
    q, k = check_q(q), check_k(k)
    out = []
    for _ in range(k):
        out.append(q_triangulate(out[-1].result if out else g, q))
    return out


def predicted_counts(n: int, m: int, q: int, k: int):
    """Exact node/edge counts of R_{q,k}(G) without construction, from
    the term table.  GraphError unless a connected simple graph has n nodes
    and m edges (GraphSummary's rule), then InvalidQError, InvalidKError."""
    from .iterated import GraphSummary, _value  # iterated imports this module

    summary, q, k = GraphSummary(n, m, 0, 0, 0, 0), check_q(q), check_k(k)
    return int(_value(summary, q, k, "n")), int(_value(summary, q, k, "m"))
