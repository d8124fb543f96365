"""Canonical graph representation, validation, and matrix views.

Nodes are numbered 1..n in all public interfaces.  Edges are kept in
canonical lexicographic order by (min, max) endpoint, and "edge j"
everywhere else in the library refers to position j (1-based) in that
ordering.  A Graph stores them once, in a 0-based array that never leaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index

import numpy as np

from .errors import (
    MAX_DENSE_NODES,
    MAX_NODES,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    EmptyGraphError,
    GraphError,
    SelfLoopError,
    check_size,
    is_integer,
)


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph.

    Immutable after construction; safe to share between threads.  The raw
    constructor performs no validation; :func:`build_graph` validates an
    edge list from outside.  Graphs are equal, and hash alike, by n and edges.

    Attributes
    ----------
    n : int
        Node count; nodes are 1..n.
    _ends : numpy.ndarray
        The one edge store, read-only: (m, 2) int64, row e-1 the 0-based
        endpoints i < j of edge e.  ``edges`` and every view derive from it.
    """

    n: int
    _ends: np.ndarray

    def __post_init__(self):
        self._ends.setflags(write=False)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self._ends, other._ends))

    def __hash__(self):
        return hash((self.n, self._ends.tobytes()))

    @property
    def m(self) -> int:
        return len(self._ends)

    @cached_property
    def edges(self) -> tuple:
        """The canonical pairs (i, j), i < j, as 1-based Python ints; built on first read."""
        return tuple(zip(*(self._ends.T + 1).tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree vector; ``degrees[i-1]`` is the degree of node i."""
        d = np.bincount(self._ends.ravel(), minlength=self.n)
        d.setflags(write=False)
        return d

    @cached_property
    def _colours(self) -> np.ndarray:
        """2-colouring by a depth-first search from node 1, linear in n + m:
        the parity of each reached node's depth in the search, and -1 for
        each node not reached.  Depth parity is distance parity only on a
        bipartite graph; on any other only the reach flags mean anything."""
        ends = self._ends.ravel()
        near = ends[np.argsort(ends, kind="stable") ^ 1]  # neighbours, grouped by node
        bounds = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=self.n))))
        colours = bytearray(b"\xff") * self.n  # 0xff, read as int8: -1, not reached
        colours[0] = 0
        stack = [0]
        while stack:
            x = stack.pop()
            for y in near[bounds[x] : bounds[x + 1]].tolist():
                if colours[y] == 0xFF:
                    colours[y] = 1 - colours[x]
                    stack.append(y)
        return np.frombuffer(bytes(colours), np.int8)  # over immutable bytes: read-only

    # ---- matrix views -------------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Dense n x n 0/1 adjacency matrix (integer); SizeLimitError
        unless n <= MAX_DENSE_NODES."""
        check_size(self.n, MAX_DENSE_NODES, "adjacency_matrix")
        a = np.zeros((self.n, self.n), dtype=np.int64)
        a[self._ends[:, 0], self._ends[:, 1]] = 1
        a[self._ends[:, 1], self._ends[:, 0]] = 1
        return a

    def incidence_matrix(self) -> np.ndarray:
        """n x m incidence matrix B; B[i-1, e-1] = 1 iff node i lies on edge e.

        Satisfies B @ B.T == A + D exactly in integer arithmetic.
        SizeLimitError unless n + m <= MAX_DENSE_NODES.
        """
        check_size(self.n + self.m, MAX_DENSE_NODES, "incidence_matrix", "nodes plus edges")
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
    canon = {}  # edges as an ordered set; sorting it into a list frees it
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
        e = (i, j) if i < j else (j, i)
        if e in canon:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        canon[e] = None
    if len(canon) < n - 1:  # caught before anything of size n is allocated
        raise DisconnectedError(
            f"graph is disconnected: {n} nodes need at least {n - 1} edges, got {len(canon)}"
        )
    canon = sorted(canon)
    g = Graph(n=n, _ends=np.fromiter(chain.from_iterable(canon), np.int64).reshape(-1, 2) - 1)
    unreached = np.flatnonzero(g._colours < 0)
    if unreached.size:
        raise DisconnectedError(
            f"graph is disconnected: node {unreached[0] + 1} unreachable from node 1"
        )
    if not canon:
        raise EmptyGraphError("graph has no edges; a walk on it is undefined")
    return g


def is_bipartite(g: Graph) -> bool:
    """True iff g has a proper 2-colouring, read off the search colouring
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
    return f"{g.n} {g.m}\n" + _format_rows(g._ends + 1)


def _format_rows(rows) -> str:
    """A line per integer row, 4096 rows at a time so no Python int outlives its block."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    blocks = (rows[i : i + 4096] for i in range(0, len(rows), 4096))
    return "".join(line * len(b) % tuple(b.ravel().tolist()) for b in blocks)


# ---- builtin graphs ---------------------------------------------------


def complete_graph(n: int) -> Graph:
    n = _count(n, "node count")
    if n < 2:  # build_graph's messages for no nodes and for no edges
        return build_graph(n, ())
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle 1, 2, ..., n; its closing edge (1, n) is edge 2 in canonical order."""
    if _count(n, "node count") < 3:
        raise EmptyGraphError("cycle needs at least 3 nodes")
    return Graph(int(n), np.insert(path_graph(n)._ends, 1, (0, n - 1), axis=0))


def path_graph(n: int) -> Graph:
    if _count(n, "node count") < 2:
        raise EmptyGraphError("path needs at least 2 nodes")
    return Graph(int(n), np.arange(n - 1)[:, None] + np.arange(2))


def star_graph(n: int) -> Graph:
    """Star with center node 1 and n leaves (n+1 nodes total)."""
    if _count(n, "leaf count") < 1:
        raise EmptyGraphError("star needs at least 1 leaf")
    return Graph(int(n) + 1, np.column_stack((np.zeros(n, np.int64), np.arange(1, n + 1))))


def builtin_graph(name: str) -> Graph:
    """Resolve 'k2', 'k3', 'cycle:N', 'path:N', 'star:N' to a Graph;
    a GraphError names the builtin for any other name or size, the
    builders' EmptyGraphError refuses a size too small, and SizeLimitError
    a graph of more than ``errors.MAX_NODES`` nodes."""
    base, colon, arg = name.partition(":")
    base = base.lower()
    if base in ("k2", "k3"):
        if colon:
            raise GraphError(f"builtin '{base}' takes no size, got '{name}'")
        return complete_graph(int(base[1]))
    if base in ("cycle", "path", "star"):
        try:
            size = int(arg)
        except ValueError:
            raise GraphError(f"builtin '{base}' needs an integer size, got '{name}'") from None
        check_size(size + (base == "star"), MAX_NODES, f"builtin '{name}'")  # star:N has N + 1
        return {"cycle": cycle_graph, "path": path_graph, "star": star_graph}[base](size)
    raise GraphError(f"unknown builtin graph '{name}'")
