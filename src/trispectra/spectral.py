"""Eigendecomposition of normalized adjacency matrices and the
closed-form lifting of a graph's spectrum to its q-triangulation.

The lift works entirely from the spectrum of G: for each eigenvalue
lambda of P(G) define Delta = lambda^2 + 2q(q+1)(1+lambda); then
(lambda +- sqrt(Delta)) / (2(q+1)) are eigenvalues of P(R_q(G)), the
remaining spectrum being zeros carried by the kernel of C = [B ... B]
(q horizontal copies of the incidence matrix) and, for bipartite G, a
single extra eigenvalue -1/(q+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, check_q
from .graph import Graph, is_bipartite

#: singular values below RANK_CUTOFF * sigma_max count as zero; B has
#: integer entries, so the separation is clean.
RANK_CUTOFF = 1e-9

_EIG_RESIDUAL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and orthonormal eigenvectors of P(graph).

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    the first eigenvector is proportional to sqrt(d_i / 2m) and every
    column has its first nonzero entry positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    graph: Graph


@dataclass(frozen=True)
class LiftedSpectrum:
    """Eigenvalues (descending) and eigenvectors of P(R_q(G)) from the
    closed-form lift, which never builds R_q(G).

    ``branches[k]`` labels where eigenvalue k came from: "plus" / "minus"
    (the two branch roots per input eigenvalue), "zero" (kernel of C),
    or "bipartite-special" (the lone -1/(q+1)).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    branches: tuple


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the first entry of magnitude > 1e-8 positive in each column."""
    big = np.abs(vecs) > 1e-8
    lead = vecs[np.argmax(big, axis=0), np.arange(vecs.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0), -vecs, vecs)


def eigendecompose(g: Graph) -> Spectrum:
    """Full symmetric eigendecomposition of P = D^{-1/2} A D^{-1/2}."""
    p = g.normalized_adjacency()
    vals, vecs = np.linalg.eigh(p)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = _fix_signs(vecs[:, order])
    residual = np.linalg.norm(p @ vecs - vecs * vals, axis=0).max()
    if residual > _EIG_RESIDUAL * max(g.n, 1):
        raise ConvergenceFailure(
            f"eigendecomposition residual {residual:.3e} exceeds tolerance"
        )
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, graph=g)


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(a), one column per zero singular value."""
    try:
        _, svals, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ConvergenceFailure(f"SVD of kernel matrix failed: {exc}") from exc
    rank = int(np.sum(svals > RANK_CUTOFF * svals[0])) if svals.size else 0
    return vh[rank:].T


def _kernel_of_b(g: Graph, q: int) -> np.ndarray:
    """Orthonormal basis N of ker B, checked to sqrt(q) ||B N|| <= 1e-10,
    the residual ||C y|| of the ker C columns 1_q/sqrt(q) (x) N."""
    b = g.incidence_matrix().astype(float)
    null_b = _null_space(b)
    if null_b.size:
        worst = np.sqrt(q) * np.linalg.norm(b @ null_b, axis=0).max()
        if worst > 1e-10:
            raise ConvergenceFailure(f"ker B residual {worst:.3e} exceeds 1e-10")
    return null_b


def kernel_basis(g: Graph, q: int) -> np.ndarray:
    """Orthonormal basis of ker(C), C = q horizontal copies of B.

    C = 1_q^T (x) B, so ker C = (ker 1_q^T (x) I_m) + (1_q/sqrt(q) (x) ker B),
    and only the n x m matrix B is decomposed.  Returns an (m*q) x dim
    matrix whose columns y satisfy ||C y|| <= 1e-10.  dim equals
    m*q - rank(B): m*q - n for non-bipartite G, m*q - n + 1 for
    bipartite G.
    """
    q = check_q(q)
    return np.hstack([
        np.kron(_null_space(np.ones((1, q))), np.eye(g.m)),
        np.kron(np.full((q, 1), 1.0 / np.sqrt(q)), _kernel_of_b(g, q)),
    ])


def lift_spectrum(spec: Spectrum, q: int) -> LiftedSpectrum:
    """Spectrum of R_q(G) from the spectrum of G = spec.graph.

    Branch eigenvectors follow the closed form: the old-node block is the
    scaled input eigenvector, the q new-node blocks are identical copies
    of sqrt(2(q+1)) / (lambda +- sqrt(Delta)) * B^T D^{-1/2} v, the whole
    vector normalized by sqrt(1/2 +- lambda / (2 sqrt(Delta))).
    """
    q, g = check_q(q), spec.graph
    n, m = g.n, g.m
    nt = n + m * q
    bipartite, _ = is_bipartite(g)
    n_branch = n - 1 if bipartite else n

    lam = spec.eigenvalues[:n_branch]
    sqrt_delta = np.sqrt(lam ** 2 + 2 * q * (q + 1) * (1 + lam))
    v = spec.eigenvectors[:, :n_branch]
    w = (g.incidence_matrix().T / np.sqrt(g.degrees)[None, :]) @ v
    roots, vecs = [], []
    for sign in (1.0, -1.0):
        denom = lam + sign * sqrt_delta
        new_block = (np.sqrt(2.0 * (q + 1)) / denom) * w
        scale = np.sqrt(0.5 + sign * lam / (2.0 * sqrt_delta))
        roots.append(denom / (2.0 * (q + 1)))
        vecs.append(scale * np.vstack([v] + [new_block] * q))

    basis = kernel_basis(g, q)
    expected_dim = m * q - n + (1 if bipartite else 0)
    if basis.shape[1] != expected_dim:
        raise ConvergenceFailure(
            f"kernel dimension {basis.shape[1]} != expected {expected_dim}"
        )
    # interleaved so that each input eigenvalue's plus root precedes its
    # minus root, then the kernel's zeros
    vals = [np.stack(roots, axis=1).ravel(), np.zeros(expected_dim)]
    cols = [
        np.stack(vecs, axis=2).reshape(nt, 2 * n_branch),
        np.vstack([np.zeros((n, expected_dim)), basis]),
    ]
    branches = ["plus", "minus"] * n_branch + ["zero"] * expected_dim
    if bipartite:
        vals.append([-1.0 / (q + 1)])
        special = np.concatenate([spec.eigenvectors[:, n - 1], np.zeros(m * q)])
        cols.append(special[:, None])
        branches.append("bipartite-special")

    vals = np.concatenate(vals)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    mat = _fix_signs(np.hstack(cols)[:, order])
    branches = tuple(np.array(branches)[order].tolist())

    vals.setflags(write=False)
    mat.setflags(write=False)
    return LiftedSpectrum(eigenvalues=vals, eigenvectors=mat, branches=branches)


def kernel_sum_residual(spec: Spectrum, q: int) -> np.ndarray:
    """Residuals of the kernel-sum identity at every generator edge of
    G = spec.graph.

    The squared entries of an orthonormal basis of ker C at a new node of
    R_q(G) sum to the diagonal entry of the projector onto ker C,
    1 - 1/q + (P_B)_ee / q, where P_B projects onto ker B and e is the
    node's generator edge {s, t}; it does not depend on the node's copy.
    The identity equates this with 1 - 1/(mq) minus a spectral sum over
    the nontrivial eigenvalues of G.  Returns |LHS - RHS| of shape (m,),
    entry e - 1 for edge e, so new node x reads entry (x - n - 1) % m.
    ker B comes from the same checked helper as kernel_basis.
    """
    q, g = check_q(q), spec.graph
    null_b = _kernel_of_b(g, q)
    lhs = 1.0 - 1.0 / q + (null_b ** 2).sum(axis=1) / q

    bipartite, _ = is_bipartite(g)
    upper = g.n - 1 if bipartite else g.n
    scaled = spec.eigenvectors[:, 1:upper] / np.sqrt(g.degrees)[:, None]
    ends = np.array(g.edges) - 1
    term = scaled[ends[:, 0]] + scaled[ends[:, 1]]
    lam = spec.eigenvalues[1:upper]
    rhs = 1.0 - 1.0 / (g.m * q) - (term ** 2 / ((1.0 + lam) * q)).sum(axis=1)
    return np.abs(lhs - rhs)
