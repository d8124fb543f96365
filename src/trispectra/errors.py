"""Exception hierarchy shared by all modules, and the q validator."""


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


class InvalidQError(TrispectraError):
    """q-triangulation parameter must be a positive integer."""


def check_q(q) -> None:
    """Raise InvalidQError unless q is a positive int (bools are not)."""
    if isinstance(q, bool) or not isinstance(q, int) or q < 1:
        raise InvalidQError(f"q must be a positive integer, got {q!r}")


class SameNodeError(TrispectraError):
    """Hitting time requested from a node to itself."""


class InvalidNodeRefError(TrispectraError):
    """NodeRef does not describe a node of R_q(G)."""


class ConvergenceFailure(TrispectraError):
    """An eigendecomposition or factorization missed its residual target."""


class SingularSystemError(TrispectraError):
    """A linear system that must be regular on connected graphs was singular."""
