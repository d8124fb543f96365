"""Canonical graph representation, validation, and matrix views.

Nodes are numbered 1..n in all public interfaces.  Edges are kept in
canonical lexicographic order by (min, max) endpoint, and "edge j"
everywhere else in the library refers to position j (1-based) in that
ordering.  Internal arrays are 0-based but never leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    EmptyGraphError,
    GraphError,
    SelfLoopError,
    is_integer,
)


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph.

    Immutable after construction; safe to share between threads.  Use
    :func:`build_graph` rather than the raw constructor, which performs
    no validation.

    Attributes
    ----------
    n : int
        Node count; nodes are 1..n.
    edges : tuple of (int, int)
        m unordered pairs (i, j) with i < j, lexicographically sorted.
    """

    n: int
    edges: tuple

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _ends(self) -> np.ndarray:
        """(m, 2) array of 0-based edge endpoints, row e-1 for edge e."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2) - 1
        ends.setflags(write=False)
        return ends

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree vector; ``degrees[i-1]`` is the degree of node i."""
        d = np.bincount(self._ends.ravel(), minlength=self.n)
        d.setflags(write=False)
        return d

    @cached_property
    def _colours(self) -> np.ndarray:
        """BFS 2-colouring from node 1, one level at a time over the edge
        array: the parity of each reached node's distance from node 1,
        and -1 for each node not reached."""
        colours = np.full(self.n, -1)
        colours[0] = 0
        u, v = self._ends.T
        level, frontier = 0, colours == 0
        while frontier.any():
            level += 1
            reached = np.zeros(self.n, dtype=bool)
            reached[v[frontier[u]]] = reached[u[frontier[v]]] = True
            frontier = reached & (colours < 0)
            colours[frontier] = level % 2
        colours.setflags(write=False)
        return colours

    # ---- matrix views -------------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Dense n x n 0/1 adjacency matrix (integer)."""
        a = np.zeros((self.n, self.n), dtype=np.int64)
        a[self._ends[:, 0], self._ends[:, 1]] = 1
        a[self._ends[:, 1], self._ends[:, 0]] = 1
        return a

    def incidence_matrix(self) -> np.ndarray:
        """n x m incidence matrix B; B[i-1, e-1] = 1 iff node i lies on edge e.

        Satisfies B @ B.T == A + D exactly in integer arithmetic.
        """
        b = np.zeros((self.n, self.m), dtype=np.int64)
        b[self._ends.T, np.arange(self.m)] = 1
        return b

    def transition_matrix(self) -> np.ndarray:
        """Random-walk transition matrix T = D^{-1} A; rows sum to 1."""
        return self.adjacency_matrix() / self.degrees[:, None]

    def normalized_adjacency(self) -> np.ndarray:
        """P = D^{-1/2} A D^{-1/2}; symmetric, entries A_ij / sqrt(d_i d_j)."""
        inv_sqrt = 1.0 / np.sqrt(self.degrees)
        return self.adjacency_matrix() * np.outer(inv_sqrt, inv_sqrt)

    def stationary_distribution(self) -> np.ndarray:
        """pi_i = d_i / 2m, the stationary law of the unbiased walk."""
        return self.degrees / (2.0 * self.m)


def _count(x, what: str) -> int:
    """x as a Python int; GraphError naming ``what`` unless x is an
    integer.  numpy integers are accepted; bools are rejected."""
    if not is_integer(x):
        raise GraphError(f"{what} must be an integer, got {x!r}")
    return int(x)


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list into a :class:`Graph`.

    Parameters
    ----------
    n : int
        Node count; all endpoints must lie in 1..n.
    edges : iterable of (int, int)
        Unordered pairs; orientation and order are irrelevant.

    Raises
    ------
    EmptyGraphError (also for a single node without edges), SelfLoopError,
    DuplicateEdgeError, DisconnectedError, and GraphError itself for an
    n or an edge that is not made of integers (bools included), and for
    an endpoint outside 1..n
    """
    n = _count(n, "node count")
    if n < 1:
        raise EmptyGraphError(f"node count must be >= 1, got {n}")
    canon = []
    seen = set()
    for raw in edges:
        try:
            i, j = raw
            if type(i) is bool or type(j) is bool:  # bool cannot be subclassed
                raise TypeError
            i, j = index(i), index(j)
        except (TypeError, ValueError):
            raise GraphError(f"edge {raw!r} is not a pair of integer node numbers") from None
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i},{j}) has endpoint outside 1..{n}")
        e = (min(i, j), max(i, j))
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    if len(canon) < n - 1:  # caught before anything of size n is allocated
        raise DisconnectedError(
            f"graph is disconnected: {n} nodes need at least {n - 1} edges, got {len(canon)}"
        )
    canon.sort()
    g = Graph(n=n, edges=tuple(canon))
    unreached = np.flatnonzero(g._colours < 0)
    if unreached.size:
        raise DisconnectedError(
            f"graph is disconnected: node {unreached[0] + 1} unreachable from node 1"
        )
    if not canon:
        raise EmptyGraphError("graph has no edges; a walk on it is undefined")
    return g


def is_bipartite(g: Graph) -> bool:
    """True iff g has a proper 2-colouring, read off the BFS colouring
    ``g._colours``: no edge joins two nodes of one colour."""
    colour = g._colours
    return bool((colour[g._ends[:, 0]] != colour[g._ends[:, 1]]).all())


# ---- edge-list text format -------------------------------------------
#
#   first line:  n m
#   then m lines: i j       (1-based, whitespace separated)
#   '#' starts a comment; blank lines ignored.


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format into a validated Graph."""
    header = None
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise EdgeListParseError(line_no, "expected header 'n m'")
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise EdgeListParseError(line_no, "non-integer header") from None
            continue
        if len(fields) != 2:
            raise EdgeListParseError(line_no, "expected 'i j'")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise EdgeListParseError(line_no, "non-integer endpoint") from None
    if header is None:
        raise EdgeListParseError(1, "empty input")
    n, m = header
    if len(pairs) != m:
        raise EdgeListParseError(
            1, f"header declares {m} edges but {len(pairs)} were given"
        )
    return build_graph(n, pairs)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


# ---- builtin graphs ---------------------------------------------------


def complete_graph(n: int) -> Graph:
    n = _count(n, "node count")
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle_graph(n: int) -> Graph:
    if _count(n, "node count") < 3:
        raise EmptyGraphError("cycle needs at least 3 nodes")
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path_graph(n: int) -> Graph:
    if _count(n, "node count") < 2:
        raise EmptyGraphError("path needs at least 2 nodes")
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def star_graph(n: int) -> Graph:
    """Star with center node 1 and n leaves (n+1 nodes total)."""
    if _count(n, "leaf count") < 1:
        raise EmptyGraphError("star needs at least 1 leaf")
    return build_graph(n + 1, [(1, j) for j in range(2, n + 2)])


def builtin_graph(name: str) -> Graph:
    """Resolve 'k2', 'k3', 'cycle:N', 'path:N', 'star:N' to a Graph;
    a ValueError names the builtin for any other name or size."""
    base, colon, arg = name.partition(":")
    base = base.lower()
    if base in ("k2", "k3"):
        if colon:
            raise ValueError(f"builtin '{base}' takes no size, got '{name}'")
        return complete_graph(int(base[1]))
    if base in ("cycle", "path", "star"):
        try:
            size = int(arg)
        except ValueError:
            raise ValueError(f"builtin '{base}' needs an integer size, got '{name}'") from None
        return {"cycle": cycle_graph, "path": path_graph, "star": star_graph}[base](size)
    raise ValueError(f"unknown builtin graph '{name}'")
