"""The dense layers built in place give the same arrays, bit for bit, as
the assembled forms kept in ``dense_forms``, on every graph of the
acceptance corpus, G and R_q(G).  The comparison is exact: a tolerance
would hide a reordered sum that changes a golden file's byte."""

import numpy as np
import pytest

import dense_forms
from trispectra import metrics, spectral
from trispectra.errors import GraphError
from trispectra.graph import complete_graph
from trispectra.triangulation import q_triangulate
from trispectra.verify import foster_sum


def test_oracles_and_indices_equal_the_assembled_forms(acceptance_corpus):
    for g in [x for g, q in acceptance_corpus for x in (g, q_triangulate(g, q).result)]:
        assert np.array_equal(g.normalized_adjacency(), dense_forms.normalized_adjacency(g))
        assert np.array_equal(g.transition_matrix(), dense_forms.transition_matrix(g))
        assert np.array_equal(g.adjacency_matrix(), dense_forms.adjacency_matrix(g))
        assert np.array_equal(g.incidence_matrix(), dense_forms.incidence_matrix(g))
        assert np.array_equal(metrics.hitting_oracle(g), dense_forms.hitting_oracle(g))
        res = metrics.resistance_oracle(g)
        assert np.array_equal(res, dense_forms.resistance_oracle(g))
        assert metrics.kirchhoff_indices(g, res) == dense_forms.kirchhoff_indices(g, res)


def test_spectra_and_kernels_equal_the_assembled_forms(acceptance_corpus):
    # each route from G on, as the verify suites run it: G's spectrum, its
    # lift with ker C, and the kernel sums on G and on R_q(G); the lifted
    # vectors keep their memory layout too, by which the suites' products
    # with them round
    for g, q in acceptance_corpus:
        spec, want = spectral.eigendecompose(g), dense_forms.eigendecompose(g)
        assert np.array_equal(spec.eigenvalues, want.eigenvalues)
        assert np.array_equal(spec.eigenvectors, want.eigenvectors)
        assert np.array_equal(spectral.kernel_basis(g, q), dense_forms.kernel_basis(g, q))
        lifted, old = spectral.lift_spectrum(spec, q), dense_forms.lift_spectrum(want, q)
        assert np.array_equal(lifted.eigenvalues, old.eigenvalues)
        assert np.array_equal(lifted.eigenvectors, old.eigenvectors)
        assert lifted.eigenvectors.flags.f_contiguous == old.eigenvectors.flags.f_contiguous
        assert lifted.graph == old.graph
        for got, reference in ((spec, want), (lifted, old)):
            assert np.array_equal(spectral.kernel_sum_residual(got, q),
                                  dense_forms.kernel_sum_residual(reference, q))
        r = lifted.graph
        decomposed, want = spectral.eigendecompose(r), dense_forms.eigendecompose(r)
        assert np.array_equal(decomposed.eigenvalues, want.eigenvalues)
        assert np.array_equal(decomposed.eigenvectors, want.eigenvectors)


@pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 4), ()], ids=["2x2", "vector", "3x4",
                                                                   "scalar"])
def test_a_wrong_shaped_resistance_is_a_graph_error(shape):
    g = complete_graph(3)
    for call in (metrics.kirchhoff_indices, foster_sum):
        with pytest.raises(GraphError, match="resistance must be an 3 x 3 numpy array"):
            call(g, np.zeros(shape))
