import dataclasses
import inspect

import numpy as np
import pytest

from trispectra import metrics, spectral
from trispectra.errors import ConvergenceFailure, InvalidQError, SingularSystemError
from trispectra.iterated import pseudofractal_metrics

from trispectra.graph import complete_graph, cycle_graph, is_bipartite, path_graph, star_graph
from trispectra.spectral import (
    Spectrum,
    eigendecompose,
    kernel_basis,
    kernel_sum_residual,
    lift_eigenvalues,
    lift_spectrum,
)
from trispectra.transfer import transfer_kemeny
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
    spec = eigendecompose(complete_graph(2))
    lifted = lift_spectrum(spec, 1)
    assert np.allclose(
        np.sort(lifted.eigenvalues), [-0.5, -0.5, 1.0], atol=1e-12
    )
    assert lifted.graph == complete_graph(3)
    branches = lift_eigenvalues(spec, 1)[1]
    assert branches.count("zero") == 0
    assert "bipartite-special" in branches


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
        branches = lift_eigenvalues(spec, q)[1]
        assert branches.count("zero") == g.m * q - g.n + (1 if bip else 0)
        assert branches.count("bipartite-special") == (1 if bip else 0)
        lam = spec.eigenvalues[:-1]
        assert np.all(lam ** 2 + 2 * q * (q + 1) * (1 + lam) >= 0)


def _k3_webs():
    """The K3 webs R_{1,k}, k <= 5, and R_{2,k}, k <= 3, each with its q."""
    return [(s.result, q) for q, k in ((1, 5), (2, 3))
            for s in iterate_triangulation(complete_graph(3), q, k)]


def test_lift_eigenvalues_equal_lift_spectrum(acceptance_corpus):
    # eigenvalues bit for bit, and each label against the lifted column it
    # names: a ker C column vanishes on the old nodes, the bipartite
    # special on the new ones, and a branch column on neither.  On the
    # corpus at its q, the K3 webs at their q, and two bipartite builtins
    # at q = 1..3
    builtins = [(g, q) for g in (cycle_graph(6), star_graph(10)) for q in (1, 2, 3)]
    for g, q in list(acceptance_corpus) + _k3_webs() + builtins:
        spec = eigendecompose(g)
        vals, branches = lift_eigenvalues(spec, q)
        lifted = lift_spectrum(spec, q)
        assert vals.tobytes() == lifted.eigenvalues.tobytes()
        old, new = np.split(lifted.eigenvectors, [g.n])
        assert (~old.any(axis=0)).tolist() == [b == "zero" for b in branches]
        assert (~new.any(axis=0)).tolist() == [b == "bipartite-special" for b in branches]


def test_lift_eigenvalue_branch_labels(acceptance_corpus):
    # the label of every lifted eigenvalue, against rank B from an SVD
    for g, q in list(acceptance_corpus) + _k3_webs():
        vals, branches = lift_eigenvalues(eigendecompose(g), q)
        rank = np.linalg.matrix_rank(g.incidence_matrix().astype(float))
        by = {label: vals[[b == label for b in branches]] for label in set(branches)}
        assert len(vals) == g.n + g.m * q
        assert len(by["plus"]) == len(by["minus"]) == rank
        assert by["plus"].min() >= 0.0 >= by["minus"].max()
        zeros = by.get("zero", np.zeros(0))
        assert len(zeros) == g.m * q - rank
        assert np.all(zeros == 0.0) and not np.signbit(zeros).any()
        special = by.get("bipartite-special", np.zeros(0))
        assert special.tolist() == ([-1.0 / (q + 1)] if is_bipartite(g)[0] else [])
        assert set(branches) <= {"plus", "minus", "zero", "bipartite-special"}


def _rel(got, want):
    """max |got - want| / max(1, |want|) over the entries."""
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


def test_spectral_route_from_a_lift(small_corpus):
    # the paper's route: R_q(G)'s hitting times, resistances and Kemeny's
    # constant from G's eigenpairs, lifted, against the oracles on the
    # built R_q(G) and the Kemeny transfer from G's summary
    for g, q in small_corpus:
        lifted = lift_spectrum(eigendecompose(g), q)
        r = q_triangulate(g, q).result
        assert _rel(metrics.hitting_spectral_matrix(lifted), metrics.hitting_oracle(r)) < 1e-12
        assert _rel(metrics.resistance_spectral_matrix(lifted), metrics.resistance_oracle(r)) < 1e-12
        assert _rel(metrics.kemeny(lifted), float(transfer_kemeny(q, metrics.compute_metrics(g)))) < 1e-12


def test_lift_of_a_lift(small_corpus):
    # lifts compose: twice lifted, G's spectrum is that of R_{q,2}(G)
    for g, q in small_corpus:
        twice = lift_spectrum(lift_spectrum(eigendecompose(g), q), q)
        r2 = iterate_triangulation(g, q, 2)[1].result
        p = r2.normalized_adjacency()
        assert twice.graph == r2
        assert np.abs(np.sort(twice.eigenvalues) - np.linalg.eigvalsh(p)).max() < 1e-12
        u = twice.eigenvectors
        assert np.linalg.norm(p @ u - u * twice.eigenvalues, axis=0).max() <= 1e-10 * r2.n


def test_webs_by_repeated_lift():
    # K3 lifted k times is the pseudofractal web R_{q,k}(K3), whose
    # Kemeny constant has a closed form
    k3 = complete_graph(3)
    for q, kmax in ((1, 4), (2, 3)):
        spec = eigendecompose(k3)
        for k, step in enumerate(iterate_triangulation(k3, q, kmax), start=1):
            spec = lift_spectrum(spec, q)
            assert spec.graph == step.result
            assert _rel(metrics.kemeny(spec), float(pseudofractal_metrics(q, k)[0])) < 1e-12


def test_lift_meets_the_spectrum_contract(small_corpus):
    # test_spectrum_invariants' contract, on the lift of G to R_q(G)
    for g, q in small_corpus:
        lifted = lift_spectrum(eigendecompose(g), q)
        r, vals, vecs = lifted.graph, lifted.eigenvalues, lifted.eigenvectors
        assert np.all(np.diff(vals) <= 0)
        assert np.abs(vecs.T @ vecs - np.eye(r.n)).max() < 1e-10
        assert np.abs(vecs[:, 0] - np.sqrt(r.degrees / (2.0 * r.m))).max() < 1e-10
        big = np.abs(vecs) > 1e-8
        assert big.any(axis=0).all()
        assert np.all(vecs[big.argmax(axis=0), np.arange(r.n)] > 0)
        assert kernel_sum_residual(lifted, q).max() <= 1e-12


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


#: each gated function: the module and name of the function that produces
#: the result it gates (of eigh, the eigenvectors), and the call on a graph
_GATED = {
    "eigendecompose": (np.linalg, "eigh", eigendecompose),
    "kernel_basis": (spectral, "_qr_kernel", lambda g: kernel_basis(g, 2)),
    "hitting_oracle": (np.linalg, "inv", metrics.hitting_oracle),
    "resistance_oracle": (np.linalg, "inv", metrics.resistance_oracle),
    "kernel_sum_residual": (np.linalg, "inv", lambda g: kernel_sum_residual(eigendecompose(g), 2)),
}

#: a fault and the error it must raise; None means the producer raises
#: LinAlgError, which only the direct inverses meet
_FAULTS = {
    "off": (lambda x: x + 1e-6 * np.eye(*x.shape), ConvergenceFailure),
    "nan": (lambda x: np.full_like(x, np.nan), ConvergenceFailure),
    "singular": (None, SingularSystemError),
}


@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(6)], ids=["odd", "bipartite"])
@pytest.mark.parametrize("target, fault", [
    (target, fault) for target, (_, name, _) in _GATED.items() for fault in _FAULTS
    if fault != "singular" or name == "inv"
])
def test_every_gate_catches_faults(monkeypatch, target, fault, g):
    # a result off by 1e-6 on its diagonal or all NaN misses its gate, and
    # an inverse that numpy refuses is a singular system.  The offset is on
    # the diagonal because a constant one is no error in L^+ (L J = 0).
    # Both graphs have a nonempty ker B; Q + z z^T has z = 0 on K4 and the
    # colouring vector on C6
    owner, name, call = _GATED[target]
    change, error = _FAULTS[fault]
    produce = getattr(owner, name)

    def faulty(*args):
        if change is None:
            raise np.linalg.LinAlgError("Singular matrix")
        out = produce(*args)
        return (*out[:-1], change(out[-1])) if isinstance(out, tuple) else change(out)

    monkeypatch.setattr(owner, name, faulty)
    with pytest.raises(error):
        call(g)


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
    g = cycle_graph(5)
    assert eigendecompose(g).graph is g
    # a lift is a Spectrum too, whose graph is R_q(G) as q_triangulate
    # numbers it
    lifted = lift_spectrum(eigendecompose(g), 2)
    assert type(lifted) is Spectrum
    assert lifted.graph == q_triangulate(g, 2).result
    assert [f.name for f in dataclasses.fields(Spectrum)] == [
        "eigenvalues", "eigenvectors", "graph",
    ]
    assert not hasattr(spectral, "LiftedSpectrum")
