"""Hitting times, Kemeny's constant, resistance distances, and the
three Kirchhoff indices, each computed two independent ways.

The spectral route evaluates the eigenvalue/eigenvector formulas; the
oracle route inverts matrices directly (the fundamental matrix for
hitting times, the Laplacian pseudoinverse for resistances) and never
touches the spectral formulas, so the two routes cross-validate.
Either route returns a :class:`GraphSummary`, the one record of a graph's
quantities, which the transfer formulas of :mod:`trispectra.transfer` read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GraphError, TrispectraError, is_index
from .graph import Graph
from .spectral import Spectrum, _gated_inverse, eigendecompose


@dataclass(frozen=True, eq=False)
class GraphSummary:
    """The quantities of G that the transfer formulas read.

    Scalars may be floats or Fractions.  ``hitting`` and ``resistance``
    (full n x n matrices of G, 0-based numpy arrays) and ``graph`` (G
    itself, whose canonical edge e is ``graph.edges[e - 1]``) are only
    needed for the two-node transfers.  GraphError, naming the field,
    unless n and m are integers with n >= 2 and n - 1 <= m <= n(n-1)/2
    (a connected simple graph), ``graph`` is a Graph with these n and m
    and each matrix has shape (n, n).  n and m are kept as Python ints,
    so that no product of counts in a closed form overflows.
    """

    n: int
    m: int
    kemeny: object
    kirchhoff: object
    additive: object
    multiplicative: object
    hitting: object = None
    resistance: object = None
    graph: object = None

    def __post_init__(self):
        n, m = self.n, self.m
        if not (is_index(n, n) and n >= 2):
            raise GraphError(f"n must be an integer >= 2, got {n!r}")
        n = int(n)
        top = n * (n - 1) // 2
        if not (is_index(m, top) and m >= n - 1):
            raise GraphError(f"m must be an integer in {n - 1}..{top}, got {m!r}")
        self.__dict__.update(n=n, m=int(m))
        g = self.graph
        if g is not None and not (isinstance(g, Graph) and (g.n, g.m) == (n, m)):
            raise GraphError(f"graph must be a Graph with n = {n} and m = {m}")
        for name in ("hitting", "resistance"):
            matrix = getattr(self, name)
            if matrix is not None and getattr(matrix, "shape", None) != (n, n):
                raise GraphError(f"{name} must be an {n} x {n} numpy array")

    @classmethod
    def from_graph(cls, g: Graph, with_matrices: bool = True) -> "GraphSummary":
        """Summarize a graph via the oracle route, without its matrices
        unless ``with_matrices``."""
        summary = compute_metrics(g, "oracle")
        return summary if with_matrices else replace(summary, hitting=None, resistance=None)


# ---- oracle route -----------------------------------------------------


def hitting_oracle(g: Graph) -> np.ndarray:
    """Full hitting-time matrix from the fundamental matrix of the walk,
    Z = (I - T + 1 pi^T)^{-1}: T_ij = (Z_jj - Z_ij) / pi_j (Kemeny and
    Snell, Finite Markov Chains, 1960).  One inverse for all targets."""
    pi = g.stationary_distribution()
    a = np.eye(g.n) - g.transition_matrix() + pi[None, :]
    z = _gated_inverse(a, 0.0, "fundamental matrix Z")
    return (np.diag(z)[None, :] - z) / pi[None, :]


def resistance_oracle(g: Graph) -> np.ndarray:
    """Resistance matrix via the Laplacian pseudoinverse:
    r_ij = (e_i - e_j)^T L^+ (e_i - e_j), with L^+ = (L + J/n)^{-1} - J/n
    (L + J/n is regular on a connected graph)."""
    lap = (np.diag(g.degrees) - g.adjacency_matrix()).astype(float)
    lp = _gated_inverse(lap, 1.0 / g.n, "Laplacian pseudoinverse L^+")
    diag = np.diag(lp)
    r = diag[:, None] + diag[None, :] - 2.0 * lp
    np.fill_diagonal(r, 0.0)
    return 0.5 * (r + r.T)


# ---- spectral route ---------------------------------------------------


def _green(spec: Spectrum) -> np.ndarray:
    """U diag(1/(1 - lambda_k)) U^T over every k >= 2, U = D^{-1/2} V.

    Written as S S^T with S = U diag(1/sqrt(1 - lambda_k)), so the
    product is exactly symmetric.  For bipartite G, lambda_n = -1 enters
    through the finite denominator 2: with s the +-1 vector of the
    2-colouring, its term is s s^T / (4m).
    """
    u = spec.eigenvectors[:, 1:] / np.sqrt(spec.graph.degrees)[:, None]
    s = u / np.sqrt(1.0 - spec.eigenvalues[1:])
    return s @ s.T


def hitting_spectral_matrix(spec: Spectrum) -> np.ndarray:
    """Hitting times of spec.graph, T_ij = 2m (G_jj - G_ij) with G =
    _green.  On a bipartite graph the lambda_n = -1 term adds
    (1 - s_i s_j) / 2: 1 iff i and j lie in different parts.
    """
    green = _green(spec)
    return 2.0 * spec.graph.m * (np.diag(green)[None, :] - green)


def kemeny(spec: Spectrum) -> float:
    """Kemeny's constant sum_{k>=2} 1/(1 - lambda_k)."""
    return float(np.sum(1.0 / (1.0 - spec.eigenvalues[1:])))


def resistance_spectral_matrix(spec: Spectrum) -> np.ndarray:
    """Resistances of spec.graph, r_ij = G_ii + G_jj - 2 G_ij with
    G = _green."""
    green = _green(spec)
    diag = np.diag(green)
    return diag[:, None] + diag[None, :] - 2.0 * green


# ---- indices and the summary ------------------------------------------


def kirchhoff_indices(g: Graph, resistance: np.ndarray):
    """(plain, additive, multiplicative) Kirchhoff indices from a
    resistance matrix; sums run over unordered node pairs."""
    d = g.degrees.astype(float)
    iu = np.triu_indices(g.n, k=1)
    r = resistance[iu]
    plain = float(np.sum(r))
    additive = float(np.sum((d[iu[0]] + d[iu[1]]) * r))
    multiplicative = float(np.sum(d[iu[0]] * d[iu[1]] * r))
    return plain, additive, multiplicative


def compute_metrics(g: Graph, route: str = "oracle") -> GraphSummary:
    """The GraphSummary of g, with its matrices, via the requested route."""
    if route == "oracle":
        hitting = hitting_oracle(g)
        resistance = resistance_oracle(g)
        pi = g.stationary_distribution()
        kem = float(hitting[0, :] @ pi)
    elif route == "spectral":
        spec = eigendecompose(g)
        hitting = hitting_spectral_matrix(spec)
        resistance = resistance_spectral_matrix(spec)
        kem = kemeny(spec)
    else:
        raise TrispectraError(f"unknown route {route!r}; use 'oracle' or 'spectral'")
    plain, additive, multiplicative = kirchhoff_indices(g, resistance)
    return GraphSummary(
        n=g.n, m=g.m, kemeny=kem, kirchhoff=plain, additive=additive,
        multiplicative=multiplicative, hitting=hitting, resistance=resistance, graph=g,
    )
