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

from .errors import ConvergenceFailure, InvalidQError, check_q
from .graph import Graph, is_bipartite

#: singular values below RANK_CUTOFF * sigma_max count as zero; B has
#: integer entries, so the separation is clean.
RANK_CUTOFF = 1e-9

_EIG_RESIDUAL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and orthonormal eigenvectors of P.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    the first eigenvector is proportional to sqrt(d_i / 2m) and every
    column has its first nonzero entry positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n: int
    m: int


@dataclass(frozen=True)
class LiftedSpectrum:
    """Spectrum of R_q(G) produced by the closed-form lift.

    ``branches[k]`` labels where eigenvalue k came from: "plus" / "minus"
    (the two branch roots per input eigenvalue), "zero" (kernel of C),
    or "bipartite-special" (the lone -1/(q+1)).
    """

    spectrum: Spectrum
    q: int
    delta: np.ndarray
    branches: tuple
    kernel_dim: int


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the first entry of magnitude > 1e-8 positive in each column."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-8)
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


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
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, n=g.n, m=g.m)


def kernel_basis(g: Graph, q: int) -> np.ndarray:
    """Orthonormal basis of ker(C), C = q horizontal copies of B.

    Returns an (m*q) x dim matrix whose columns y satisfy ||C y|| <= 1e-10.
    dim equals m*q - rank(B): m*q - n for non-bipartite G, m*q - n + 1
    for bipartite G.
    """
    check_q(q)
    b = g.incidence_matrix().astype(float)
    c = np.hstack([b] * q)
    try:
        _, svals, vh = np.linalg.svd(c, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ConvergenceFailure(f"SVD of kernel matrix failed: {exc}") from exc
    rank = int(np.sum(svals > RANK_CUTOFF * svals[0])) if svals.size else 0
    basis = vh[rank:].T
    if basis.size:
        worst = np.linalg.norm(c @ basis, axis=0).max()
        if worst > 1e-10:
            raise ConvergenceFailure(
                f"kernel basis residual {worst:.3e} exceeds 1e-10"
            )
    return basis


def lift_spectrum(spec: Spectrum, g: Graph, q: int) -> LiftedSpectrum:
    """Spectrum of R_q(G) from the spectrum of G, without construction.

    Branch eigenvectors follow the closed form: the old-node block is the
    scaled input eigenvector, the q new-node blocks are identical copies
    of sqrt(2(q+1)) / (lambda +- sqrt(Delta)) * B^T D^{-1/2} v, the whole
    vector normalized by sqrt(1/2 +- lambda / (2 sqrt(Delta))).
    """
    check_q(q)
    n, m = g.n, g.m
    nt = n + m * q
    bipartite, _ = is_bipartite(g)
    n_branch = n - 1 if bipartite else n

    bt_dinv = g.incidence_matrix().T / np.sqrt(g.degrees)[None, :]

    vals = []
    vecs = []
    branches = []
    deltas = np.empty(n)
    lam_all = spec.eigenvalues
    for i in range(n):
        deltas[i] = lam_all[i] ** 2 + 2 * q * (q + 1) * (1 + lam_all[i])
    for i in range(n_branch):
        lam = lam_all[i]
        sqrt_delta = np.sqrt(deltas[i])
        w = bt_dinv @ spec.eigenvectors[:, i]
        for sign, label in ((+1.0, "plus"), (-1.0, "minus")):
            denom = lam + sign * sqrt_delta
            scale = np.sqrt(0.5 + sign * lam / (2.0 * sqrt_delta))
            new_block = (np.sqrt(2.0 * (q + 1)) / denom) * w
            vec = np.concatenate([spec.eigenvectors[:, i]] + [new_block] * q)
            vals.append(denom / (2.0 * (q + 1)))
            vecs.append(scale * vec)
            branches.append(label)

    basis = kernel_basis(g, q)
    expected_dim = m * q - n + (1 if bipartite else 0)
    if basis.shape[1] != expected_dim:
        raise ConvergenceFailure(
            f"kernel dimension {basis.shape[1]} != expected {expected_dim}"
        )
    for z in range(basis.shape[1]):
        vec = np.concatenate([np.zeros(n), basis[:, z]])
        vals.append(0.0)
        vecs.append(vec)
        branches.append("zero")

    if bipartite:
        vec = np.concatenate([spec.eigenvectors[:, n - 1], np.zeros(m * q)])
        vals.append(-1.0 / (q + 1))
        vecs.append(vec)
        branches.append("bipartite-special")

    vals = np.array(vals)
    mat = np.column_stack(vecs)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    mat = _fix_signs(mat[:, order])
    branches = tuple(branches[k] for k in order)

    vals.setflags(write=False)
    mat.setflags(write=False)
    lifted = Spectrum(eigenvalues=vals, eigenvectors=mat, n=nt, m=m * (2 * q + 1))
    return LiftedSpectrum(
        spectrum=lifted, q=q, delta=deltas, branches=branches,
        kernel_dim=basis.shape[1],
    )


def kernel_sum_residual(g: Graph, q: int, spec: Spectrum, new_node: int) -> float:
    """Residual of the kernel-sum identity at one new node of R_q(G).

    For a new node j with generator endpoints {s, t}, the squared kernel
    entries at j sum to 1 - 1/(mq) minus a spectral sum over the
    nontrivial eigenvalues of G; this returns |LHS - RHS|.
    """
    n, m = g.n, g.m
    if not (n < new_node <= n + m * q):
        raise InvalidQError(f"node {new_node} is not a new node of R_{q}(G)")
    pos = new_node - n - 1          # 0-based position within the mq block
    e = pos % m                     # 0-based generator edge index
    s, t = g.edges[e]

    basis = kernel_basis(g, q)
    lhs = float(np.sum(basis[pos, :] ** 2)) if basis.size else 0.0

    bipartite, _ = is_bipartite(g)
    upper = n - 1 if bipartite else n
    d = g.degrees
    rhs = 1.0 - 1.0 / (m * q)
    for k in range(1, upper):
        lam = spec.eigenvalues[k]
        term = (
            spec.eigenvectors[s - 1, k] / np.sqrt(d[s - 1])
            + spec.eigenvectors[t - 1, k] / np.sqrt(d[t - 1])
        )
        rhs -= term ** 2 / ((1.0 + lam) * q)
    return abs(lhs - rhs)
