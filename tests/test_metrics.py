import numpy as np
import pytest

from trispectra.errors import SameNodeError
from trispectra.graph import build_graph, complete_graph, cycle_graph, path_graph
from trispectra.metrics import (
    compute_metrics,
    hitting_oracle,
    hitting_spectral,
    kemeny,
    kirchhoff_indices,
    resistance_oracle,
    resistance_spectral,
)
from trispectra.spectral import eigendecompose


def test_hitting_oracle_small():
    assert np.array_equal(hitting_oracle(complete_graph(2)), [[0, 1], [1, 0]])
    h3 = hitting_oracle(complete_graph(3))
    assert np.allclose(h3, 2 * (1 - np.eye(3)), atol=1e-12)
    # P3: h1 = 1 + h2, h2 = 1 + h1/2  ->  T_13 = 4
    assert hitting_oracle(path_graph(3))[0, 2] == pytest.approx(4.0, abs=1e-12)


def test_hitting_spectral_matches():
    k3 = complete_graph(3)
    assert hitting_spectral(eigendecompose(k3), k3, 1, 2) == pytest.approx(2.0)
    k2 = complete_graph(2)
    # bipartite branch with the +1 correction for opposite parts
    assert hitting_spectral(eigendecompose(k2), k2, 1, 2) == pytest.approx(1.0)
    c4 = cycle_graph(4)
    assert hitting_spectral(eigendecompose(c4), c4, 1, 3) == pytest.approx(4.0)


def test_hitting_same_node_rejected():
    k3 = complete_graph(3)
    with pytest.raises(SameNodeError):
        hitting_spectral(eigendecompose(k3), k3, 2, 2)


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
    assert resistance_spectral(eigendecompose(k2), k2, 1, 2) == pytest.approx(1.0)
    k3 = complete_graph(3)
    # series-parallel: 1 || (1+1) = 2/3
    assert resistance_spectral(eigendecompose(k3), k3, 1, 2) == pytest.approx(2 / 3)
    p3 = path_graph(3)
    assert resistance_spectral(eigendecompose(p3), p3, 1, 3) == pytest.approx(2.0)
    assert resistance_spectral(eigendecompose(p3), p3, 2, 2) == 0.0


def test_routes_agree(small_corpus):
    for g, _ in small_corpus:
        spec = eigendecompose(g)
        oracle = compute_metrics(g, "oracle")
        spectral = compute_metrics(g, "spectral", spec)
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
    dropped = {(1, 10), (3, 4), (4, 5), (5, 6)}
    g = build_graph(10, [e for e in complete_graph(10).edges if e not in dropped])
    r = resistance_oracle(g)
    assert sum(r[i - 1, j - 1] for i, j in g.edges) == pytest.approx(g.n - 1, abs=1e-12)
    spectral = compute_metrics(g, "spectral").resistance
    assert np.abs(r - spectral).max() < 1e-12
