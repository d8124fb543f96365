"""The dense layers as they stood before they were built in place, kept
as a witness.

These are the bodies that ``trispectra.graph``, ``spectral`` and
``metrics`` held when each dense matrix was assembled from an integer
adjacency or incidence matrix, ``np.eye``, ``np.diag``, ``np.kron`` and
``hstack``/``vstack``, with the upper triangle read by ``triu_indices``.
The package now builds each matrix once from the endpoint array and works
in place with the same operations in the same operand order, so the tests
require its outputs to equal these under ``np.array_equal``, not within a
tolerance.  They take valid graphs and do no argument or size checks.
"""

from __future__ import annotations

import numpy as np

from trispectra.graph import is_bipartite
from trispectra.spectral import Spectrum, _gate, _lifted_values, _qr_kernel
from trispectra.triangulation import q_triangulate


def adjacency_matrix(g) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[g._ends[:, 0], g._ends[:, 1]] = 1
    a[g._ends[:, 1], g._ends[:, 0]] = 1
    return a


def incidence_matrix(g) -> np.ndarray:
    b = np.zeros((g.n, g.m), dtype=np.int64)
    b[g._ends.T, np.arange(g.m)] = 1
    return b


def transition_matrix(g) -> np.ndarray:
    return adjacency_matrix(g) / g.degrees[:, None]


def normalized_adjacency(g) -> np.ndarray:
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    return adjacency_matrix(g) * np.outer(inv_sqrt, inv_sqrt)


def gated_inverse(m: np.ndarray, kk, what: str) -> np.ndarray:
    n = len(m)
    try:
        result = np.linalg.inv(m + kk) - kk
    except np.linalg.LinAlgError:
        result = np.full((n, n), np.nan)
    _gate(np.abs(m @ result - (np.eye(n) - kk)).max(), 1e-10 * n, what)
    return result


def fix_signs(vecs: np.ndarray) -> np.ndarray:
    big = np.abs(vecs) > 1e-8
    lead = vecs[np.argmax(big, axis=0), np.arange(vecs.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0), -vecs, vecs)


def eigendecompose(g) -> Spectrum:
    p = normalized_adjacency(g)
    vals, vecs = np.linalg.eigh(p)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = fix_signs(vecs[:, order])
    residual = np.linalg.norm(p @ vecs - vecs * vals, axis=0).max()
    _gate(residual, 1e-10 * g.n, "eigendecomposition of P")
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, graph=g)


def kernel_basis(g, q: int) -> np.ndarray:
    b = incidence_matrix(g).astype(float)
    null_b = _qr_kernel(b, g.n - is_bipartite(g))
    _gate(np.sqrt(q) * np.linalg.norm(b @ null_b, axis=0).max(initial=0.0), 1e-10, "ker B")
    return np.hstack([
        np.kron(_qr_kernel(np.ones((1, q)), 1), np.eye(g.m)),
        np.kron(np.full((q, 1), 1.0 / np.sqrt(q)), null_b),
    ])


def lift_spectrum(spec: Spectrum, q: int) -> Spectrum:
    g = spec.graph
    n, m = g.n, g.m
    bipartite = is_bipartite(g)
    rank = n - bipartite
    vals, _, order, numer, sqrt_delta = _lifted_values(spec.eigenvalues, n, m, bipartite, q)

    lam = spec.eigenvalues[:rank]
    v, leftover = np.hsplit(spec.eigenvectors, [rank])
    w = (incidence_matrix(g).T / np.sqrt(g.degrees)[None, :]) @ v
    cols = []
    for sign, denom in zip((1.0, -1.0), numer):
        new_block = (np.sqrt(2.0 * (q + 1)) / denom) * w
        scale = np.sqrt(0.5 + sign * lam / (2.0 * sqrt_delta))
        cols.append(scale * np.vstack([v] + [new_block] * q))
    cols.append(np.vstack([np.zeros((n, m * q - rank)), kernel_basis(g, q)]))
    cols.append(np.vstack([leftover, np.zeros((m * q, n - rank))]))

    mat = fix_signs(np.hstack(cols)[:, order])
    return Spectrum(eigenvalues=vals, eigenvectors=mat, graph=q_triangulate(g, q).result)


def kernel_sum_residual(spec: Spectrum, q: int) -> np.ndarray:
    g = spec.graph
    bipartite = is_bipartite(g)
    z = (1.0 - 2.0 * g._colours) / np.sqrt(g.n) * bipartite
    signless = (adjacency_matrix(g) + np.diag(g.degrees)).astype(float)
    pinv = gated_inverse(signless, np.outer(z, z), "signless Laplacian pseudoinverse Q^+")
    s, t = g._ends.T
    lhs = 1.0 - (pinv[s, s] + pinv[t, t] + 2.0 * pinv[s, t]) / q

    upper = g.n - bipartite
    scaled = spec.eigenvectors[:, 1:upper] / np.sqrt(g.degrees)[:, None]
    term = scaled[s] + scaled[t]
    lam = spec.eigenvalues[1:upper]
    rhs = 1.0 - 1.0 / (g.m * q) - (term ** 2 / ((1.0 + lam) * q)).sum(axis=1)
    return np.abs(lhs - rhs)


def hitting_oracle(g) -> np.ndarray:
    pi = g.degrees / (2.0 * g.m)
    a = np.eye(g.n) - transition_matrix(g) + pi[None, :]
    z = gated_inverse(a, 0.0, "fundamental matrix Z")
    return (np.diag(z)[None, :] - z) / pi[None, :]


def resistance_oracle(g) -> np.ndarray:
    lap = (np.diag(g.degrees) - adjacency_matrix(g)).astype(float)
    lp = gated_inverse(lap, 1.0 / g.n, "Laplacian pseudoinverse L^+")
    diag = np.diag(lp)
    r = diag[:, None] + diag[None, :] - 2.0 * lp
    np.fill_diagonal(r, 0.0)
    return 0.5 * (r + r.T)


def kirchhoff_indices(g, resistance: np.ndarray):
    d = g.degrees.astype(float)
    iu = np.triu_indices(g.n, k=1)
    r = resistance[iu]
    plain = float(np.sum(r))
    additive = float(np.sum((d[iu[0]] + d[iu[1]]) * r))
    multiplicative = float(np.sum(d[iu[0]] * d[iu[1]] * r))
    return plain, additive, multiplicative
