"""Eigendecomposition of normalized adjacency matrices and the
closed-form lifting of a graph's spectrum to its q-triangulation.

The lift works entirely from the spectrum of G: for each eigenvalue
lambda of P(G) define Delta = lambda^2 + 2q(q+1)(1+lambda); then
(lambda +- sqrt(Delta)) / (2(q+1)) are eigenvalues of P(R_q(G)), the
remaining spectrum being zeros carried by the kernel of C = [B ... B]
(q horizontal copies of the incidence matrix) and -1/(q+1) for each
input eigenvalue beyond rank B (one on a bipartite G, none otherwise).
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
    Rank B is n - [G bipartite] and both kernels come from a QR.  Returns
    an (m*q) x (m*q - rank B) matrix whose columns y satisfy
    ||C y|| = sqrt(q) ||B N|| <= 1e-10, N the basis of ker B.
    """
    q = check_q(q)
    b = g.incidence_matrix().astype(float)
    null_b = _qr_kernel(b, g.n - is_bipartite(g))
    _gate(np.sqrt(q) * np.linalg.norm(b @ null_b, axis=0).max(initial=0.0), 1e-10, "ker B")
    return np.hstack([
        np.kron(_qr_kernel(np.ones((1, q)), 1), np.eye(g.m)),
        np.kron(np.full((q, 1), 1.0 / np.sqrt(q)), null_b),
    ])


def _lifted_values(eigenvalues, n: int, m: int, bipartite: bool, q: int):
    """(eigenvalues, branches, order, numer, sqrt_delta) of the lift to
    R_q(G) from G's descending eigenvalues, n, m and bipartite flag, q
    already checked.

    Unsorted, the values follow lift_spectrum's column layout in blocks:
    the plus roots of the first rank B = n - [G bipartite] input
    eigenvalues, then their minus roots, each block in G's order, then
    the m*q - rank B zeros of ker C, then a "bipartite-special" -1/(q+1)
    for each input eigenvalue left over (one on a bipartite G, none
    otherwise).  ``order`` is their stable descending argsort, and
    eigenvalues and branches come sorted by it.  ``numer``, shape
    (2, rank B), holds the roots' numerators lambda +- sqrt(Delta), which
    the branch eigenvectors reuse with ``sqrt_delta``.
    """
    rank = n - bipartite
    lam = eigenvalues[:rank]
    sqrt_delta = np.sqrt(lam ** 2 + 2 * q * (q + 1) * (1 + lam))
    numer = lam + np.array([[1.0], [-1.0]]) * sqrt_delta
    zeros = m * q - rank
    vals = np.concatenate([(numer / (2.0 * (q + 1))).ravel(), np.zeros(zeros),
                           np.full(n - rank, -1.0 / (q + 1))])
    branches = (["plus"] * rank + ["minus"] * rank + ["zero"] * zeros
                + ["bipartite-special"] * (n - rank))
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vals.setflags(write=False)
    return vals, tuple(branches[k] for k in order), order, numer, sqrt_delta


def lift_eigenvalues(spec: Spectrum, q: int) -> tuple[np.ndarray, tuple]:
    """(eigenvalues, branches) of P(R_q(G)) from the eigenvalues of
    G = spec.graph alone, the eigenvalues equal to lift_spectrum's bit for
    bit; branch k is "plus" or "minus" (the root's sign), "zero" (ker C)
    or "bipartite-special" (-1/(q+1), one per eigenvalue beyond rank B).

    O(n + mq) work: no eigenvector matrix and no basis of ker C is built,
    so kernel_basis's ker B residual check does not run; the m*q - rank B
    zeros are counted from the 2-colouring, as in lift_spectrum.
    """
    g = spec.graph
    return _lifted_values(spec.eigenvalues, g.n, g.m, is_bipartite(g), check_q(q))[:2]


def lift_spectrum(spec: Spectrum, q: int) -> Spectrum:
    """Spectrum of R_q(G) from the spectrum of G = spec.graph, with
    R_q(G) built by q_triangulate as its graph but never decomposed.

    Branch eigenvectors follow the closed form: the old-node block is the
    scaled input eigenvector, the q new-node blocks are identical copies
    of sqrt(2(q+1)) / (lambda +- sqrt(Delta)) * B^T D^{-1/2} v, the whole
    vector normalized by sqrt(1/2 +- lambda / (2 sqrt(Delta))).  The input
    eigenvectors beyond rank B (one on a bipartite G, none otherwise) are
    kept on the old nodes and zero on the new.
    """
    q, g = check_q(q), spec.graph
    n, m = g.n, g.m
    bipartite = is_bipartite(g)
    rank = n - bipartite
    vals, _, order, numer, sqrt_delta = _lifted_values(spec.eigenvalues, n, m, bipartite, q)

    lam = spec.eigenvalues[:rank]
    v, leftover = np.hsplit(spec.eigenvectors, [rank])
    w = (g.incidence_matrix().T / np.sqrt(g.degrees)[None, :]) @ v
    cols = []  # in _lifted_values's column layout
    for sign, denom in zip((1.0, -1.0), numer):
        new_block = (np.sqrt(2.0 * (q + 1)) / denom) * w
        scale = np.sqrt(0.5 + sign * lam / (2.0 * sqrt_delta))
        cols.append(scale * np.vstack([v] + [new_block] * q))
    cols.append(np.vstack([np.zeros((n, m * q - rank)), kernel_basis(g, q)]))
    cols.append(np.vstack([leftover, np.zeros((m * q, n - rank))]))

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
    +-1 vector of the 2-colouring times [G bipartite], so 0 on a
    non-bipartite G.  The identity equates this with 1 - 1/(mq) minus a
    spectral sum over the nontrivial eigenvalues of G, which is Q^+'s
    spectral form.  Returns |LHS - RHS| of shape (m,), entry e - 1 for
    edge e; new node x reads the entry of its edge e from
    triangulation.new_node_generator.
    """
    q, g = check_q(q), spec.graph
    bipartite = is_bipartite(g)
    z = (1.0 - 2.0 * g._colours) / np.sqrt(g.n) * bipartite
    signless = (g.adjacency_matrix() + np.diag(g.degrees)).astype(float)
    pinv = _gated_inverse(signless, np.outer(z, z), "signless Laplacian pseudoinverse Q^+")
    s, t = g._ends.T
    lhs = 1.0 - (pinv[s, s] + pinv[t, t] + 2.0 * pinv[s, t]) / q

    upper = g.n - bipartite
    scaled = spec.eigenvectors[:, 1:upper] / np.sqrt(g.degrees)[:, None]
    term = scaled[s] + scaled[t]
    lam = spec.eigenvalues[1:upper]
    rhs = 1.0 - 1.0 / (g.m * q) - (term ** 2 / ((1.0 + lam) * q)).sum(axis=1)
    return np.abs(lhs - rhs)
