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

from .errors import ConvergenceFailure, SingularSystemError, check_q
from .graph import Graph, is_bipartite
from .triangulation import q_triangulate

#: eigenpairs and direct inverses, here and in metrics, are gated at this times n
_RESIDUAL = 1e-10


def _gate(residual, limit, what: str) -> None:
    """Raise ConvergenceFailure naming ``what``, the residual and the
    limit unless residual <= limit, so a NaN residual is a miss."""
    if not residual <= limit:
        raise ConvergenceFailure(f"{what} residual {residual:.3e} exceeds {limit:.3e}")


def _gated_inverse(m: np.ndarray, kk, what: str) -> np.ndarray:
    """(m + kk)^{-1} - kk, kk the projector onto ker m (a scalar c is c J),
    gated at ||m result - (I - kk)||_max <= 1e-10 n; SingularSystemError
    only when m + kk cannot be inverted."""
    n = len(m)
    try:
        result = np.linalg.inv(m + kk) - kk
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what}: matrix to invert is singular") from exc
    _gate(np.abs(m @ result - (np.eye(n) - kk)).max(), _RESIDUAL * n, what)
    return result


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) and orthonormal eigenvectors of P(graph),
    from eigendecompose(graph) or, for graph = R_q(G), lift_spectrum.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    the first is sqrt(d_i / 2m), and in every column the first entry of
    magnitude > 1e-8 is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    graph: Graph


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
    _gate(residual, _RESIDUAL * g.n, "eigendecomposition of P")
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, graph=g)


def _incidence_rank(g: Graph):
    """(bipartite, rank B): rank B = n - 1 on a bipartite G, whose +-1
    colouring vector spans B's left kernel, and n otherwise."""
    bipartite, _ = is_bipartite(g)
    return bipartite, g.n - bipartite


def _qr_kernel(a: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of ker(a), whose first ``rank`` rows span its rows:
    the trailing columns of a complete QR of a[:rank]^T.  Any n - 1 rows of
    a connected bipartite graph's B qualify, as the colouring vector that
    spans B's left kernel has no zero entry."""
    basis, _ = np.linalg.qr(a[:rank].T, mode="complete")
    return basis[:, rank:]


def kernel_basis(g: Graph, q: int) -> np.ndarray:
    """Orthonormal basis of ker(C), C = q horizontal copies of B.

    C = 1_q^T (x) B, so ker C = (ker 1_q^T (x) I_m) + (1_q/sqrt(q) (x) ker B).
    Rank B comes from the 2-colouring and both kernels from a QR.  Returns
    an (m*q) x (m*q - rank B) matrix whose columns y satisfy
    ||C y|| = sqrt(q) ||B N|| <= 1e-10, N the basis of ker B.
    """
    q = check_q(q)
    b = g.incidence_matrix().astype(float)
    null_b = _qr_kernel(b, _incidence_rank(g)[1])
    if null_b.size:
        _gate(np.sqrt(q) * np.linalg.norm(b @ null_b, axis=0).max(), 1e-10, "ker B")
    return np.hstack([
        np.kron(_qr_kernel(np.ones((1, q)), 1), np.eye(g.m)),
        np.kron(np.full((q, 1), 1.0 / np.sqrt(q)), null_b),
    ])


def _lifted_values(spec: Spectrum, q: int):
    """(eigenvalues, branches, order, numer, sqrt_delta) of the lift to
    R_q(G), q already checked.

    Unsorted, the values follow lift_spectrum's column layout: each input
    eigenvalue's plus root, then its minus root, then the m*q - rank B
    zeros of ker C, then the bipartite special -1/(q+1).  ``order`` is
    their stable descending argsort, and eigenvalues and branches come
    sorted by it.  ``numer``, shape (2, rank B), holds the roots'
    numerators lambda +- sqrt(Delta), which the branch eigenvectors reuse
    with ``sqrt_delta``.
    """
    g = spec.graph
    bipartite, n_branch = _incidence_rank(g)
    lam = spec.eigenvalues[:n_branch]
    sqrt_delta = np.sqrt(lam ** 2 + 2 * q * (q + 1) * (1 + lam))
    numer = lam + np.array([[1.0], [-1.0]]) * sqrt_delta
    zeros = g.m * q - n_branch
    vals = [(numer / (2.0 * (q + 1))).T.ravel(), np.zeros(zeros)]
    branches = ["plus", "minus"] * n_branch + ["zero"] * zeros
    if bipartite:
        vals.append([-1.0 / (q + 1)])
        branches.append("bipartite-special")

    vals = np.concatenate(vals)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vals.setflags(write=False)
    return vals, tuple(branches[k] for k in order), order, numer, sqrt_delta


def lift_eigenvalues(spec: Spectrum, q: int) -> tuple[np.ndarray, tuple]:
    """(eigenvalues, branches) of P(R_q(G)) from the eigenvalues of
    G = spec.graph alone, the eigenvalues equal to lift_spectrum's bit for
    bit; branch k is "plus" or "minus" (the root's sign), "zero" (ker C)
    or "bipartite-special" (the lone -1/(q+1)).

    O(n + mq) work: no eigenvector matrix and no basis of ker C is built,
    so kernel_basis's ker B residual check does not run; the m*q - rank B
    zeros are counted from the 2-colouring, as in lift_spectrum.
    """
    return _lifted_values(spec, check_q(q))[:2]


def lift_spectrum(spec: Spectrum, q: int) -> Spectrum:
    """Spectrum of R_q(G) from the spectrum of G = spec.graph, with
    R_q(G) built by q_triangulate as its graph but never decomposed.

    Branch eigenvectors follow the closed form: the old-node block is the
    scaled input eigenvector, the q new-node blocks are identical copies
    of sqrt(2(q+1)) / (lambda +- sqrt(Delta)) * B^T D^{-1/2} v, the whole
    vector normalized by sqrt(1/2 +- lambda / (2 sqrt(Delta))).
    """
    q, g = check_q(q), spec.graph
    n, m = g.n, g.m
    vals, _, order, numer, sqrt_delta = _lifted_values(spec, q)
    n_branch = len(sqrt_delta)

    lam = spec.eigenvalues[:n_branch]
    v = spec.eigenvectors[:, :n_branch]
    w = (g.incidence_matrix().T / np.sqrt(g.degrees)[None, :]) @ v
    vecs = []
    for sign, denom in zip((1.0, -1.0), numer):
        new_block = (np.sqrt(2.0 * (q + 1)) / denom) * w
        scale = np.sqrt(0.5 + sign * lam / (2.0 * sqrt_delta))
        vecs.append(scale * np.vstack([v] + [new_block] * q))

    zeros = m * q - n_branch
    # in _lifted_values's column layout
    cols = [
        np.stack(vecs, axis=2).reshape(-1, 2 * n_branch),
        np.vstack([np.zeros((n, zeros)), kernel_basis(g, q)]),
    ]
    if n_branch < n:  # bipartite: rank B = n - 1
        special = np.concatenate([spec.eigenvectors[:, n - 1], np.zeros(m * q)])
        cols.append(special[:, None])

    mat = _fix_signs(np.hstack(cols)[:, order])
    mat.setflags(write=False)
    return Spectrum(eigenvalues=vals, eigenvectors=mat, graph=q_triangulate(g, q).result)


def kernel_sum_residual(spec: Spectrum, q: int) -> np.ndarray:
    """Residuals of the kernel-sum identity at every generator edge of
    G = spec.graph.

    The squared entries of an orthonormal basis of ker C at a new node of
    R_q(G) sum to the diagonal entry of the projector onto ker C,
    1 - 1/q + (P_B)_ee / q, where P_B projects onto ker B and e is the
    node's generator edge {s, t}; it does not depend on the node's copy.
    (P_B)_ee = 1 - b_e^T Q^+ b_e with b_e = e_s + e_t, Q = B B^T = A + D
    the signless Laplacian and Q^+ = (Q + z z^T)^{-1} - z z^T, z the unit
    +-1 vector of the 2-colouring on a bipartite G and 0 otherwise.  The
    identity equates this with 1 - 1/(mq) minus a spectral sum over the
    nontrivial eigenvalues of G, which is Q^+'s spectral form.  Returns
    |LHS - RHS| of shape (m,), entry e - 1 for edge e; new node x reads
    the entry of its edge e from triangulation.new_node_generator.
    """
    q, g = check_q(q), spec.graph
    bipartite, upper = _incidence_rank(g)
    z = (1.0 - 2.0 * g._colours) / np.sqrt(g.n) if bipartite else np.zeros(g.n)
    signless = (g.adjacency_matrix() + np.diag(g.degrees)).astype(float)
    pinv = _gated_inverse(signless, np.outer(z, z), "signless Laplacian pseudoinverse Q^+")
    s, t = g._ends.T
    lhs = 1.0 - (pinv[s, s] + pinv[t, t] + 2.0 * pinv[s, t]) / q

    scaled = spec.eigenvectors[:, 1:upper] / np.sqrt(g.degrees)[:, None]
    term = scaled[s] + scaled[t]
    lam = spec.eigenvalues[1:upper]
    rhs = 1.0 - 1.0 / (g.m * q) - (term ** 2 / ((1.0 + lam) * q)).sum(axis=1)
    return np.abs(lhs - rhs)
