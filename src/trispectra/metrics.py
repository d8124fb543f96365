"""Hitting times, Kemeny's constant, resistance distances, and the
three Kirchhoff indices, each computed two independent ways.

The spectral route evaluates the eigenvalue/eigenvector formulas; the
oracle route solves linear systems directly (first-step analysis for
hitting times, Laplacian pseudoinverse for resistances) and never
touches the spectral formulas, so the two routes cross-validate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import SameNodeError, SingularSystemError
from .graph import Graph, is_bipartite
from .spectral import Spectrum

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
    """Full hitting-time matrix by first-step analysis.

    For each target j, solve h_i = 1 + sum_{u in Gamma(i)} h_u / d_i with
    h_j = 0; one dense solve per target.
    """
    n = g.n
    t = g.transition_matrix()
    h = np.zeros((n, n))
    ones = np.ones(n)
    for j in range(n):
        a = np.eye(n) - t
        a[j, :] = 0.0
        a[j, j] = 1.0
        b = ones.copy()
        b[j] = 0.0
        try:
            col = linalg.solve(a, b)
        except linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"hitting-time system for target {j + 1} is singular"
            ) from exc
        if np.linalg.norm(a @ col - b) > _SOLVE_RESIDUAL * n:
            raise SingularSystemError(
                f"hitting-time solve for target {j + 1} missed residual target"
            )
        h[:, j] = col
    return h


def resistance_oracle(g: Graph) -> np.ndarray:
    """Resistance matrix via the Laplacian pseudoinverse:
    r_ij = (e_i - e_j)^T L^+ (e_i - e_j), with L^+ = (L + J/n)^{-1} - J/n
    (L + J/n is regular on a connected graph)."""
    lap = (g.degree_matrix() - g.adjacency_matrix()).astype(float)
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


def hitting_spectral(spec: Spectrum, g: Graph, i: int, j: int) -> float:
    """Hitting time T_ij from the spectrum of P.

    Non-bipartite: 2m sum_{k>=2} (v_kj^2/d_j - v_ki v_kj/sqrt(d_i d_j))
    / (1 - lambda_k).  Bipartite: the k = n term is dropped and +1 is
    added iff i and j lie in different parts of the 2-coloring.
    """
    if i == j:
        raise SameNodeError(f"hitting time from node {i} to itself")
    return float(hitting_spectral_matrix(spec, g)[i - 1, j - 1])


def hitting_spectral_matrix(spec: Spectrum, g: Graph) -> np.ndarray:
    bipartite, parts = is_bipartite(g)
    upper = g.n - 1 if bipartite else g.n
    d = g.degrees.astype(float)
    h = np.zeros((g.n, g.n))
    for k in range(1, upper):
        v = spec.eigenvectors[:, k]
        w = 1.0 / (1.0 - spec.eigenvalues[k])
        vj2 = v ** 2 / d
        cross = np.outer(v / np.sqrt(d), v / np.sqrt(d))
        h += w * (vj2[None, :] - cross)
    h *= 2.0 * g.m
    if bipartite:
        v1, _ = parts
        side = np.array([1 if u in v1 else 0 for u in range(1, g.n + 1)])
        h += (side[:, None] != side[None, :]).astype(float)
    np.fill_diagonal(h, 0.0)
    return h


def kemeny(spec: Spectrum) -> float:
    """Kemeny's constant sum_{k>=2} 1/(1 - lambda_k)."""
    return float(np.sum(1.0 / (1.0 - spec.eigenvalues[1:])))


def resistance_spectral(spec: Spectrum, g: Graph, i: int, j: int) -> float:
    """r_ij = sum_{k>=2} (v_ki/sqrt(d_i) - v_kj/sqrt(d_j))^2 / (1-lambda_k).

    The k = n term is kept even for bipartite graphs: lambda_n = -1
    contributes finitely through the denominator 2.
    """
    if i == j:
        return 0.0
    return float(resistance_spectral_matrix(spec, g)[i - 1, j - 1])


def resistance_spectral_matrix(spec: Spectrum, g: Graph) -> np.ndarray:
    d = np.sqrt(g.degrees.astype(float))
    r = np.zeros((g.n, g.n))
    for k in range(1, g.n):
        u = spec.eigenvectors[:, k] / d
        r += (u[:, None] - u[None, :]) ** 2 / (1.0 - spec.eigenvalues[k])
    np.fill_diagonal(r, 0.0)
    return r


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


def compute_metrics(g: Graph, route: str = "oracle", spec: Spectrum = None) -> MetricsReport:
    """Build a full MetricsReport via the requested route."""
    if route == "oracle":
        hitting = hitting_oracle(g)
        resistance = resistance_oracle(g)
        pi = g.stationary_distribution()
        kem = float(hitting[0, :] @ pi)
    elif route == "spectral":
        if spec is None:
            from .spectral import eigendecompose

            spec = eigendecompose(g)
        hitting = hitting_spectral_matrix(spec, g)
        resistance = resistance_spectral_matrix(spec, g)
        kem = kemeny(spec)
    else:
        raise ValueError(f"unknown route {route!r}")
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
