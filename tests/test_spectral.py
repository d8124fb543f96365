import dataclasses
import inspect

import numpy as np
import pytest

from trispectra import spectral
from trispectra.errors import ConvergenceFailure, InvalidQError

from trispectra.graph import complete_graph, cycle_graph, is_bipartite, path_graph, star_graph
from trispectra.spectral import (
    eigendecompose,
    kernel_basis,
    kernel_sum_residual,
    lift_eigenvalues,
    lift_spectrum,
)
from trispectra.triangulation import iterate_triangulation, q_triangulate


def test_k3_eigenvalues():
    spec = eigendecompose(complete_graph(3))
    assert np.allclose(spec.eigenvalues, [1.0, -0.5, -0.5], atol=1e-12)


def test_k2_eigenvalues():
    spec = eigendecompose(complete_graph(2))
    assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-12)


def test_c4_eigenvalues():
    # hand oracle: P(C4) has spectrum {1, 0, 0, -1}
    spec = eigendecompose(cycle_graph(4))
    assert np.allclose(spec.eigenvalues, [1.0, 0.0, 0.0, -1.0], atol=1e-12)


def test_spectrum_invariants(small_corpus):
    for g, _ in small_corpus:
        spec = eigendecompose(g)
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        assert abs(vals[0] - 1.0) < 1e-10
        assert np.abs(vals).max() <= 1 + 1e-10
        assert np.abs(vecs.T @ vecs - np.eye(g.n)).max() < 1e-10
        p = g.normalized_adjacency()
        assert np.linalg.norm(p @ vecs - vecs * vals, axis=0).max() < 1e-10 * g.n
        # leading eigenvector is the square-rooted stationary law
        expected = np.sqrt(g.degrees / (2.0 * g.m))
        assert np.abs(vecs[:, 0] - expected).max() < 1e-10
        # minimum eigenvalue hits -1 exactly when bipartite
        assert (abs(vals[-1] + 1.0) < 1e-10) == is_bipartite(g)[0]


def test_kernel_basis_dimensions():
    assert kernel_basis(complete_graph(3), 1).shape == (3, 0)
    assert kernel_basis(complete_graph(2), 1).shape == (1, 0)
    basis = kernel_basis(complete_graph(2), 2)
    assert basis.shape == (2, 1)
    assert np.allclose(np.abs(basis[:, 0]), 1.0 / np.sqrt(2))


def _svd_kernel_projector(c):
    """Projector onto ker c, from numpy's SVD of c with its rank read off
    the singular values: the reference for kernel_basis."""
    _, svals, vh = np.linalg.svd(c, full_matrices=False)
    row = vh[: int((svals > 1e-9 * svals[0]).sum())]
    return np.eye(c.shape[1]) - row.T @ row


def test_kernel_basis_properties(small_corpus, acceptance_corpus):
    # against an SVD of the whole C on both parities: the corpus G, the
    # R_q(G) of every eighth of them, the K3 webs, a tree (ker B empty)
    # and K2 (ker C empty at q = 1)
    webs = [(s.result, q) for q, k in ((1, 5), (2, 3))
            for s in iterate_triangulation(complete_graph(3), q, k)[1:]]
    cases = list(small_corpus) + list(acceptance_corpus) + webs
    cases += [(q_triangulate(g, q).result, q) for g, q in acceptance_corpus[::8]]
    cases += [(path_graph(5), 1), (path_graph(5), 2)]
    cases += [(complete_graph(2), q) for q in (1, 2, 3)]
    for g, q in cases:
        basis = kernel_basis(g, q)
        dim = g.m * q - g.n + (1 if is_bipartite(g)[0] else 0)
        assert basis.shape == (g.m * q, dim)
        assert np.abs(basis.T @ basis - np.eye(dim)).max(initial=0.0) < 1e-10
        c = np.hstack([g.incidence_matrix().astype(float)] * q)
        assert np.abs(basis @ basis.T - _svd_kernel_projector(c)).max(initial=0.0) < 1e-12


def test_lift_k3_q1_multiset():
    g = complete_graph(3)
    lifted = lift_spectrum(eigendecompose(g), 1)
    direct = eigendecompose(q_triangulate(g, 1).result)
    assert np.abs(
        np.sort(lifted.eigenvalues) - np.sort(direct.eigenvalues)
    ).max() < 1e-10
    # oracle-confirmed multiset: {1, 1/4, 1/4, -1/2, -1/2, -1/2}
    assert np.allclose(
        np.sort(direct.eigenvalues), [-0.5, -0.5, -0.5, 0.25, 0.25, 1.0], atol=1e-10
    )


def test_lift_k2_q1_is_k3_spectrum():
    g = complete_graph(2)
    lifted = lift_spectrum(eigendecompose(g), 1)
    assert np.allclose(
        np.sort(lifted.eigenvalues), [-0.5, -0.5, 1.0], atol=1e-12
    )
    assert lifted.branches.count("zero") == 0
    assert "bipartite-special" in lifted.branches


def test_lift_top_branch_values(small_corpus):
    # lambda_1 = 1 always lifts to 1 and -q/(q+1)
    for g, q in small_corpus:
        lifted = lift_spectrum(eigendecompose(g), q)
        vals = lifted.eigenvalues
        assert abs(vals[0] - 1.0) < 1e-10
        assert np.abs(vals + q / (q + 1)).min() < 1e-10


def test_lift_full_properties(small_corpus):
    for g, q in small_corpus:
        spec = eigendecompose(g)
        lifted = lift_spectrum(spec, q)
        r = q_triangulate(g, q).result
        assert lifted.eigenvalues.size == r.n
        direct = eigendecompose(r)
        assert np.abs(
            np.sort(lifted.eigenvalues) - np.sort(direct.eigenvalues)
        ).max() < 1e-8
        p = r.normalized_adjacency()
        u = lifted.eigenvectors
        assert np.abs(u.T @ u - np.eye(r.n)).max() < 1e-9
        resid = np.linalg.norm(
            p @ u - u * lifted.eigenvalues, axis=0
        ).max()
        assert resid < 1e-9 * r.n
        bip = is_bipartite(g)[0]
        zeros = lifted.branches.count("zero")
        assert zeros == g.m * q - g.n + (1 if bip else 0)
        assert lifted.branches.count("bipartite-special") == (1 if bip else 0)
        lam = spec.eigenvalues[:-1]
        assert np.all(lam ** 2 + 2 * q * (q + 1) * (1 + lam) >= 0)


def test_lift_eigenvalues_equal_lift_spectrum(acceptance_corpus):
    # eigenvalues bit for bit and branches by ==: the corpus at its q, the
    # K3 webs R_{1,k}, k <= 5, and R_{2,k}, k <= 3, at their q, and two
    # bipartite builtins at q = 1..3
    webs = [(s.result, q) for q, k in ((1, 5), (2, 3))
            for s in iterate_triangulation(complete_graph(3), q, k)]
    builtins = [(g, q) for g in (cycle_graph(6), star_graph(10)) for q in (1, 2, 3)]
    for g, q in list(acceptance_corpus) + webs + builtins:
        spec = eigendecompose(g)
        vals, branches = lift_eigenvalues(spec, q)
        lifted = lift_spectrum(spec, q)
        assert vals.tobytes() == lifted.eigenvalues.tobytes()
        assert branches == lifted.branches


def test_kernel_sum_identity_examples():
    for g, q in ((complete_graph(2), 2), (complete_graph(3), 1)):
        residuals = kernel_sum_residual(eigendecompose(g), q)
        assert residuals.shape == (g.m,)
        assert residuals.max() < 1e-12


def test_kernel_sum_identity_random(small_corpus):
    for g, q in small_corpus:
        assert kernel_sum_residual(eigendecompose(g), q).max() < 1e-8


def _identity_rhs(g, q, spec):
    """1 - 1/(mq) minus the spectral sum of the kernel-sum identity, one
    entry per generator edge of G."""
    upper = g.n - 1 if is_bipartite(g)[0] else g.n
    scaled = spec.eigenvectors[:, 1:upper] / np.sqrt(g.degrees)[:, None]
    ends = np.array(g.edges) - 1
    term = scaled[ends[:, 0]] + scaled[ends[:, 1]]
    lam = spec.eigenvalues[1:upper]
    return 1.0 - 1.0 / (g.m * q) - (term ** 2 / ((1.0 + lam) * q)).sum(axis=1)


def test_kernel_sum_lhs_matches_basis_rows(small_corpus):
    # every row of the full ker C basis (all q copies, so every new node)
    # of every case and of its lift, against the residual at the row's
    # generator edge
    cases = [(g, q) for g, q in small_corpus]
    cases += [(q_triangulate(g, q).result, q) for g, q in small_corpus]
    for g, q in cases:
        spec = eigendecompose(g)
        residuals = kernel_sum_residual(spec, q)
        assert residuals.shape == (g.m,)
        rows = (kernel_basis(g, q) ** 2).sum(axis=1)
        old = np.abs(rows - np.tile(_identity_rhs(g, q, spec), q))
        assert np.abs(np.tile(residuals, q) - old).max() < 1e-12
        assert residuals.max() < 1e-10


def test_kernel_sum_skips_kernel_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel basis route called")

    monkeypatch.setattr(spectral, "kernel_basis", refuse)
    monkeypatch.setattr(spectral, "_qr_kernel", refuse)
    g = cycle_graph(5)
    assert kernel_sum_residual(eigendecompose(g), 2).max() < 1e-12


@pytest.mark.parametrize("g", [cycle_graph(5), cycle_graph(6)], ids=["odd", "bipartite"])
def test_kernel_sum_checks_null_space(monkeypatch, g):
    # a "null space" that B does not annihilate must be caught by the
    # owner of ker B, at either rank; kernel_sum_residual never takes one
    monkeypatch.setattr(
        spectral, "_qr_kernel", lambda a, rank: np.eye(a.shape[1])[:, :1]
    )
    with pytest.raises(ConvergenceFailure):
        kernel_basis(g, 2)


@pytest.mark.parametrize("g", [cycle_graph(5), cycle_graph(6)], ids=["odd", "bipartite"])
def test_kernel_sum_checks_signless_inverse(monkeypatch, g):
    # an inverse of Q + z z^T that is off by 1e-6 must be caught, whether
    # z is 0 or the colouring vector
    spec = eigendecompose(g)
    inv = np.linalg.inv
    monkeypatch.setattr(spectral.np.linalg, "inv", lambda a: inv(a) + 1e-6)
    with pytest.raises(ConvergenceFailure):
        kernel_sum_residual(spec, 2)


def test_kernel_sum_input_contract():
    k3 = complete_graph(3)
    spec = eigendecompose(k3)
    for bad_q in (1.5, 0, True):
        with pytest.raises(InvalidQError):
            kernel_sum_residual(spec, bad_q)
    assert kernel_sum_residual(spec, np.int64(2)).max() < 1e-12


def test_lift_rejects_non_integer_q():
    g = complete_graph(3)
    spec = eigendecompose(g)
    for bad_q in (0, 1.5, True):
        messages = []
        for lift in (lift_eigenvalues, lift_spectrum):
            with pytest.raises(InvalidQError) as info:
                lift(spec, bad_q)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    with pytest.raises(InvalidQError):
        kernel_basis(g, True)


def test_spectral_functions_take_the_graph_from_the_spectrum():
    # the graph is given once, to eigendecompose; nothing downstream can
    # pair a spectrum with another graph
    from trispectra import metrics

    params = {
        fn.__name__: list(inspect.signature(fn).parameters)
        for fn in (lift_eigenvalues, lift_spectrum, kernel_sum_residual,
                   metrics.hitting_spectral_matrix, metrics.resistance_spectral_matrix)
    }
    assert params == {
        "lift_eigenvalues": ["spec", "q"],
        "lift_spectrum": ["spec", "q"],
        "kernel_sum_residual": ["spec", "q"],
        "hitting_spectral_matrix": ["spec"],
        "resistance_spectral_matrix": ["spec"],
    }
    assert [f.name for f in dataclasses.fields(spectral.LiftedSpectrum)] == [
        "eigenvalues", "eigenvectors", "branches",
    ]
    g = cycle_graph(5)
    assert eigendecompose(g).graph is g
