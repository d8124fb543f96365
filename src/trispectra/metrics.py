"""Hitting times, Kemeny's constant, resistance distances, and the
three Kirchhoff indices, each computed two independent ways.

The spectral route evaluates the eigenvalue/eigenvector formulas; the
oracle route inverts matrices directly (the fundamental matrix for
hitting times, the Laplacian pseudoinverse for resistances) and never
touches the spectral formulas, so the two routes cross-validate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, TrispectraError
from .graph import Graph, is_bipartite
from .spectral import Spectrum, eigendecompose

_SOLVE_RESIDUAL = 1e-10


@dataclass(frozen=True)
class MetricsReport:
    """All walk/resistance quantities of one graph from one route."""

    hitting: np.ndarray        # n x n, hitting[i-1, j-1] = T_ij, zero diagonal
    kemeny: float
    resistance: np.ndarray     # n x n symmetric, zero diagonal
    kirchhoff: float
    additive: float
    multiplicative: float
    route: str                 # "spectral" | "oracle"


# ---- oracle route -----------------------------------------------------


def hitting_oracle(g: Graph) -> np.ndarray:
    """Full hitting-time matrix from the fundamental matrix of the walk,
    Z = (I - T + 1 pi^T)^{-1}: T_ij = (Z_jj - Z_ij) / pi_j (Kemeny and
    Snell, Finite Markov Chains, 1960).  One inverse for all targets."""
    pi = g.stationary_distribution()
    a = np.eye(g.n) - g.transition_matrix() + pi[None, :]
    try:
        z = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("I - T + 1 pi^T is singular") from exc
    if np.abs(a @ z - np.eye(g.n)).max() > _SOLVE_RESIDUAL * g.n:
        raise SingularSystemError("fundamental matrix missed residual target")
    return (np.diag(z)[None, :] - z) / pi[None, :]


def resistance_oracle(g: Graph) -> np.ndarray:
    """Resistance matrix via the Laplacian pseudoinverse:
    r_ij = (e_i - e_j)^T L^+ (e_i - e_j), with L^+ = (L + J/n)^{-1} - J/n
    (L + J/n is regular on a connected graph)."""
    lap = (np.diag(g.degrees) - g.adjacency_matrix()).astype(float)
    try:
        lp = np.linalg.inv(lap + 1.0 / g.n) - 1.0 / g.n
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("Laplacian plus J/n is singular") from exc
    diag = np.diag(lp)
    r = diag[:, None] + diag[None, :] - 2.0 * lp
    np.fill_diagonal(r, 0.0)
    # sanity: L L^+ must be the projector off the all-ones vector
    proj = np.eye(g.n) - np.ones((g.n, g.n)) / g.n
    if np.abs(lap @ lp - proj).max() > _SOLVE_RESIDUAL * g.n:
        raise SingularSystemError("Laplacian pseudoinverse missed residual target")
    return 0.5 * (r + r.T)


# ---- spectral route ---------------------------------------------------


def _green(spec: Spectrum, upper: int) -> np.ndarray:
    """U diag(1/(1 - lambda_k)) U^T over k = 2..upper, U = D^{-1/2} V.

    Written as S S^T with S = U diag(1/sqrt(1 - lambda_k)), so the
    product is exactly symmetric.
    """
    u = spec.eigenvectors[:, 1:upper] / np.sqrt(spec.graph.degrees)[:, None]
    s = u / np.sqrt(1.0 - spec.eigenvalues[1:upper])
    return s @ s.T


def hitting_spectral_matrix(spec: Spectrum) -> np.ndarray:
    """Hitting times of spec.graph, T_ij = 2m (G_jj - G_ij) with G =
    _green over k >= 2.  For bipartite G the k = n term is dropped and
    +1 is added iff i and j lie in different parts of the 2-coloring.
    """
    g = spec.graph
    bipartite, parts = is_bipartite(g)
    green = _green(spec, g.n - 1 if bipartite else g.n)
    h = 2.0 * g.m * (np.diag(green)[None, :] - green)
    if bipartite:
        side = np.isin(np.arange(1, g.n + 1), list(parts[0]))
        h += side[:, None] != side[None, :]
    return h


def kemeny(spec: Spectrum) -> float:
    """Kemeny's constant sum_{k>=2} 1/(1 - lambda_k)."""
    return float(np.sum(1.0 / (1.0 - spec.eigenvalues[1:])))


def resistance_spectral_matrix(spec: Spectrum) -> np.ndarray:
    """Resistances of spec.graph, r_ij = G_ii + G_jj - 2 G_ij with
    G = _green over all k >= 2.

    The k = n term is kept even for bipartite graphs: lambda_n = -1
    contributes finitely through the denominator 2.
    """
    green = _green(spec, spec.graph.n)
    diag = np.diag(green)
    return diag[:, None] + diag[None, :] - 2.0 * green


# ---- indices and the combined report ---------------------------------


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


def compute_metrics(g: Graph, route: str = "oracle") -> MetricsReport:
    """Build a full MetricsReport via the requested route."""
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
    return MetricsReport(
        hitting=hitting,
        kemeny=kem,
        resistance=resistance,
        kirchhoff=plain,
        additive=additive,
        multiplicative=multiplicative,
        route=route,
    )
