"""Exception hierarchy shared by all modules; ``is_integer``, the one
test of an integer argument; the validators of q, k and node indices
built on it; and the two size bounds, checked by ``check_size``."""

from numbers import Integral


class TrispectraError(Exception):
    """Base class for all library errors."""


class GraphError(TrispectraError):
    """Invalid graph input."""


class EmptyGraphError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class EdgeListParseError(GraphError):
    """Malformed edge-list text; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"parse error line {line_no}: {message}")
        self.line_no = line_no


class InvalidQError(TrispectraError):
    """q-triangulation parameter must be a positive integer."""


def is_integer(x) -> bool:
    """True iff x is an integer (numpy integers included) and not a bool."""
    return type(x) is int or isinstance(x, Integral) and not isinstance(x, bool)


def check_q(q) -> int:
    """q as a Python int; raise InvalidQError unless q is a positive
    integer.  numpy integers are accepted, and converted so that exact
    powers such as (4q+2)^k cannot overflow; bools are rejected."""
    if not is_integer(q) or q < 1:
        raise InvalidQError(f"q must be a positive integer, got {q!r}")
    return int(q)


class InvalidKError(TrispectraError):
    """Iteration count k must be a non-negative integer."""


def check_k(k) -> int:
    """k as a Python int; raise InvalidKError unless k is a non-negative
    integer.  numpy integers are accepted; bools are rejected."""
    if not is_integer(k) or k < 0:
        raise InvalidKError(f"iteration count must be a non-negative integer, got {k!r}")
    return int(k)


def is_index(x, top: int) -> bool:
    """True iff x is an integer (not a bool) in 1..top."""
    return is_integer(x) and 1 <= x <= top


class FloatOverflowError(TrispectraError):
    """A closed form on float values left the float range."""


class SameNodeError(TrispectraError):
    """Hitting time requested from a node to itself."""


class InvalidNodeRefError(TrispectraError):
    """A node index is not a node of R_q(G), or a summary lacks what a
    two-node transfer reads."""


class ConvergenceFailure(TrispectraError):
    """A numerical result missed its residual gate; a NaN residual misses."""


class SizeLimitError(TrispectraError):
    """A graph is larger than the arrays of a computation may be."""


#: most nodes n of a graph whose n x n arrays are built: the two oracles,
#: eigendecompose, Graph.adjacency_matrix, and R_q(G)'s in lift_spectrum
#: and kernel_basis; one n x n float array at the bound takes 128 MiB.  It
#: bounds n + m for Graph.incidence_matrix's n x m array, and make_corpus's nmax
MAX_DENSE_NODES = 4096

#: most nodes of a graph whose node and edge arrays are built: n + mq in
#: q_triangulate and lift_eigenvalues, and a builtin graph's size
MAX_NODES = 2**21


def check_size(n: int, bound: int, what: str, size: str = "nodes") -> None:
    """SizeLimitError naming ``what``, n and the bound unless n <= bound;
    ``size`` names what n counts."""
    if n > bound:
        raise SizeLimitError(f"{what} on {n} {size} exceeds the bound of {bound} {size}")
