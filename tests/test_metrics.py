import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trispectra
from trispectra.graph import build_graph, complete_graph, cycle_graph, path_graph
from trispectra.metrics import (
    compute_metrics,
    hitting_oracle,
    hitting_spectral_matrix,
    kemeny,
    kirchhoff_indices,
    resistance_oracle,
    resistance_spectral_matrix,
)
from trispectra.spectral import eigendecompose


def first_step_hitting(g):
    """Reference hitting matrix by first-step analysis, one dense solve
    per target j: h_i = 1 + sum_{u ~ i} h_u / d_i with h_j = 0."""
    n = g.n
    h = np.zeros((n, n))
    for j in range(n):
        a = np.eye(n) - g.transition_matrix()
        a[j, :] = 0.0
        a[j, j] = 1.0
        b = np.ones(n)
        b[j] = 0.0
        h[:, j] = np.linalg.solve(a, b)
    return h


def k10_minus_four():
    dropped = {(1, 10), (3, 4), (4, 5), (5, 6)}
    return build_graph(10, [e for e in complete_graph(10).edges if e not in dropped])


def test_hitting_oracle_small():
    assert np.array_equal(hitting_oracle(complete_graph(2)), [[0, 1], [1, 0]])
    h3 = hitting_oracle(complete_graph(3))
    assert np.allclose(h3, 2 * (1 - np.eye(3)), atol=1e-12)
    # P3: h1 = 1 + h2, h2 = 1 + h1/2  ->  T_13 = 4
    assert hitting_oracle(path_graph(3))[0, 2] == pytest.approx(4.0, abs=1e-12)


def test_hitting_oracle_matches_first_step(small_corpus):
    graphs = [g for g, _ in small_corpus] + [k10_minus_four()]
    for g in graphs:
        want = first_step_hitting(g)
        got = hitting_oracle(g)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_hitting_spectral_matches():
    k3 = complete_graph(3)
    assert hitting_spectral_matrix(eigendecompose(k3), k3)[0, 1] == pytest.approx(2.0)
    k2 = complete_graph(2)
    # bipartite branch with the +1 correction for opposite parts
    assert hitting_spectral_matrix(eigendecompose(k2), k2)[0, 1] == pytest.approx(1.0)
    c4 = cycle_graph(4)
    assert hitting_spectral_matrix(eigendecompose(c4), c4)[0, 2] == pytest.approx(4.0)


def test_kemeny_values():
    assert kemeny(eigendecompose(complete_graph(3))) == pytest.approx(4.0 / 3.0)
    assert kemeny(eigendecompose(complete_graph(2))) == pytest.approx(0.5)


def test_kemeny_start_independence(small_corpus):
    for g, _ in small_corpus:
        k = kemeny(eigendecompose(g))
        h = hitting_oracle(g)
        pi = g.stationary_distribution()
        assert np.abs(h @ pi - k).max() < 1e-8


def test_resistance_values():
    k2 = complete_graph(2)
    assert resistance_spectral_matrix(eigendecompose(k2), k2)[0, 1] == pytest.approx(1.0)
    k3 = complete_graph(3)
    # series-parallel: 1 || (1+1) = 2/3
    assert resistance_spectral_matrix(eigendecompose(k3), k3)[0, 1] == pytest.approx(2 / 3)
    p3 = path_graph(3)
    r = resistance_spectral_matrix(eigendecompose(p3), p3)
    assert r[0, 2] == pytest.approx(2.0)
    assert r[1, 1] == 0.0


def test_routes_agree(small_corpus):
    for g, _ in small_corpus:
        oracle = compute_metrics(g, "oracle")
        spectral = compute_metrics(g, "spectral")
        assert np.abs(oracle.hitting - spectral.hitting).max() < 1e-8
        assert np.abs(oracle.resistance - spectral.resistance).max() < 1e-8
        assert oracle.kemeny == pytest.approx(spectral.kemeny, abs=1e-8)


def test_resistance_matrix_is_metric(small_corpus):
    for g, _ in small_corpus:
        r = resistance_oracle(g)
        assert np.abs(r - r.T).max() < 1e-12
        assert np.diag(r).max() == 0.0
        assert r.min() >= 0.0
        # triangle inequality
        n = g.n
        for i in range(n):
            # r_ik <= r_ij + r_jk for every j, k
            assert (r[i, :, None] + r - r[i, None, :] >= -1e-10).all()


def test_hitting_at_least_one(small_corpus):
    for g, _ in small_corpus:
        h = hitting_oracle(g)
        off = h[~np.eye(g.n, dtype=bool)]
        assert off.min() >= 1.0 - 1e-12


def test_reciprocity_and_foster(small_corpus):
    for g, _ in small_corpus:
        h = hitting_oracle(g)
        r = resistance_oracle(g)
        assert np.abs(2 * g.m * r - (h + h.T)).max() < 1e-8
        foster = sum(r[i - 1, j - 1] for i, j in g.edges)
        assert foster == pytest.approx(g.n - 1, abs=1e-8)


def test_kirchhoff_indices_small():
    k3 = complete_graph(3)
    assert kirchhoff_indices(k3, resistance_oracle(k3)) == pytest.approx((2.0, 8.0, 8.0))
    k2 = complete_graph(2)
    assert kirchhoff_indices(k2, resistance_oracle(k2)) == pytest.approx((1.0, 2.0, 1.0))


def test_multiplicative_is_2m_kemeny(small_corpus):
    for g, _ in small_corpus:
        _, _, mul = kirchhoff_indices(g, resistance_oracle(g))
        assert mul == pytest.approx(2 * g.m * kemeny(eigendecompose(g)), abs=1e-8)


def test_resistance_oracle_dense_graph():
    """K10 minus four edges: a pseudoinverse by thresholded eigenvalues
    keeps L's zero eigenvalue here; (L + J/n)^-1 - J/n does not."""
    g = k10_minus_four()
    r = resistance_oracle(g)
    assert sum(r[i - 1, j - 1] for i, j in g.edges) == pytest.approx(g.n - 1, abs=1e-12)
    spectral = compute_metrics(g, "spectral").resistance
    assert np.abs(r - spectral).max() < 1e-12


def test_import_leaves_out_scipy():
    """The package needs numpy only; a fresh interpreter that imports it
    must not have loaded scipy."""
    src = str(Path(trispectra.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import trispectra; " \
        "print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
