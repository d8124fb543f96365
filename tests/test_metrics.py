import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trispectra
from trispectra.errors import TrispectraError
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
from trispectra.triangulation import iterate_triangulation, q_triangulate


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
    assert hitting_spectral_matrix(eigendecompose(k3))[0, 1] == pytest.approx(2.0)
    k2 = complete_graph(2)
    # bipartite: the lambda_n = -1 term gives the 1 between opposite parts
    assert hitting_spectral_matrix(eigendecompose(k2))[0, 1] == pytest.approx(1.0)
    c4 = cycle_graph(4)
    assert hitting_spectral_matrix(eigendecompose(c4))[0, 2] == pytest.approx(4.0)


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
    assert resistance_spectral_matrix(eigendecompose(k2))[0, 1] == pytest.approx(1.0)
    k3 = complete_graph(3)
    # series-parallel: 1 || (1+1) = 2/3
    assert resistance_spectral_matrix(eigendecompose(k3))[0, 1] == pytest.approx(2 / 3)
    p3 = path_graph(3)
    r = resistance_spectral_matrix(eigendecompose(p3))
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


def test_unknown_route_is_typed():
    with pytest.raises(TrispectraError, match="unknown route 'bogus'"):
        compute_metrics(complete_graph(3), "bogus")


def test_spectral_matrices_read_the_graph_from_the_spectrum():
    # the graph comes with its spectrum: P5's end-to-end resistance is 4
    # and its end-to-end hitting time 16
    spec = eigendecompose(path_graph(5))
    assert resistance_spectral_matrix(spec)[0, 4] == pytest.approx(4.0, abs=1e-12)
    assert hitting_spectral_matrix(spec)[0, 4] == pytest.approx(16.0, abs=1e-12)


def test_resistance_and_kemeny_match_networkx(small_corpus):
    """networkx as a third oracle: the whole resistance matrix and Kemeny's
    constant of every corpus graph, its R_q(G) and the q = 1, k = 3 web.
    In networkx 3.6 both functions import scipy."""
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")
    graphs = [g for g, _ in small_corpus]
    graphs += [q_triangulate(g, q).result for g, q in small_corpus]
    graphs.append(iterate_triangulation(complete_graph(3), 1, 3)[-1].result)
    for g in graphs:
        ref = nx.Graph(g.edges)
        dist = nx.resistance_distance(ref)
        nodes = range(1, g.n + 1)
        want = np.array([[dist[i][j] for j in nodes] for i in nodes])
        assert np.abs(resistance_oracle(g) - want).max() <= 1e-10 * want.max()
        kem = nx.kemeny_constant(ref)
        for route in ("oracle", "spectral"):
            assert compute_metrics(g, route).kemeny == pytest.approx(kem, rel=1e-10, abs=0)
