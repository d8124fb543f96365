"""The two size bounds of ``errors``: MAX_DENSE_NODES for every n x n
array and MAX_NODES for every node or edge array.  Each guarded function
checks its bound before it allocates anything of that size, so every
input here that is over a bound allocates nothing large."""

import io
import time

import pytest

from trispectra import metrics, spectral
from trispectra.cli import main
from trispectra.errors import MAX_DENSE_NODES, MAX_NODES, SizeLimitError, check_size
from trispectra.graph import builtin_graph, complete_graph, star_graph
from trispectra.triangulation import predicted_counts, q_triangulate

K3 = complete_graph(3)


def _message(what, n, bound):
    return f"{what} on {n} nodes exceeds the bound of {bound} nodes"


def test_bounds_admit_the_largest_graphs_in_use():
    # the k = 7 web is the largest that the dense oracle was timed on, and
    # R_{1,12}(K3) the target of a matrix-free oracle
    assert predicted_counts(3, 3, 1, 7)[0] == 3282 <= MAX_DENSE_NODES
    assert predicted_counts(3, 3, 1, 12)[0] == 797163 <= MAX_NODES


def test_check_size_admits_the_bound_itself():
    check_size(MAX_NODES, MAX_NODES, "x")
    with pytest.raises(SizeLimitError, match=f"^{_message('x', MAX_NODES + 1, MAX_NODES)}$"):
        check_size(MAX_NODES + 1, MAX_NODES, "x")


#: q whose R_q(K3) has one node more than each bound
_DENSE_Q = (MAX_DENSE_NODES - 3) // 3 + 1
_ARRAY_Q = (MAX_NODES - 3) // 3 + 1


@pytest.mark.parametrize("what, call, n, bound", [
    ("hitting_oracle", lambda: metrics.hitting_oracle(star_graph(MAX_DENSE_NODES)),
     MAX_DENSE_NODES + 1, MAX_DENSE_NODES),
    ("resistance_oracle", lambda: metrics.resistance_oracle(star_graph(MAX_DENSE_NODES)),
     MAX_DENSE_NODES + 1, MAX_DENSE_NODES),
    ("hitting_oracle", lambda: metrics.compute_metrics(star_graph(MAX_DENSE_NODES)),
     MAX_DENSE_NODES + 1, MAX_DENSE_NODES),
    ("eigendecompose", lambda: spectral.eigendecompose(star_graph(MAX_DENSE_NODES)),
     MAX_DENSE_NODES + 1, MAX_DENSE_NODES),
    ("kernel_basis", lambda: spectral.kernel_basis(K3, _DENSE_Q),
     3 + 3 * _DENSE_Q, MAX_DENSE_NODES),
    ("lift_spectrum", lambda: spectral.lift_spectrum(spectral.eigendecompose(K3), _DENSE_Q),
     3 + 3 * _DENSE_Q, MAX_DENSE_NODES),
    ("lift_eigenvalues",
     lambda: spectral.lift_eigenvalues(spectral.eigendecompose(K3), _ARRAY_Q),
     3 + 3 * _ARRAY_Q, MAX_NODES),
    ("q_triangulate", lambda: q_triangulate(K3, _ARRAY_Q), 3 + 3 * _ARRAY_Q, MAX_NODES),
    (f"builtin 'cycle:{MAX_NODES + 1}'", lambda: builtin_graph(f"cycle:{MAX_NODES + 1}"),
     MAX_NODES + 1, MAX_NODES),
    (f"builtin 'star:{MAX_NODES}'", lambda: builtin_graph(f"star:{MAX_NODES}"),
     MAX_NODES + 1, MAX_NODES),
], ids=["hitting_oracle", "resistance_oracle", "compute_metrics", "eigendecompose",
        "kernel_basis", "lift_spectrum", "lift_eigenvalues", "q_triangulate", "builtin-cycle",
        "builtin-star"])
def test_each_guard_names_size_and_bound(what, call, n, bound):
    with pytest.raises(SizeLimitError) as info:
        call()
    assert str(info.value) == _message(what, n, bound)


@pytest.mark.parametrize("view, n, size", [
    ("adjacency_matrix", 100000, "nodes"),
    ("incidence_matrix", 100000 + 99999, "nodes plus edges"),
])
def test_each_matrix_view_names_its_size(view, n, size):
    # under a 3 GB address-space limit each raised a raw MemoryError for
    # its 74.5 GiB array; n x m is bounded by n + m, which the callers'
    # bound on R_q(G)'s n + mq nodes already caps
    with pytest.raises(SizeLimitError) as info:
        getattr(star_graph(99999), view)()
    assert str(info.value) == (
        f"{view} on {n} {size} exceeds the bound of {MAX_DENSE_NODES} {size}"
    )


@pytest.mark.parametrize("argv, what, n, bound", [
    # a raw _ArrayMemoryError for 74.5 GiB from np.eye in hitting_oracle
    (["metrics", "--graph", "star:100000"], "hitting_oracle", 100001, MAX_DENSE_NODES),
    # a raw _ArrayMemoryError for 21.8 TiB from the lift's zeros
    (["spectrum", "--graph", "k3", "--q", str(10**12)], "lift_eigenvalues",
     3 * 10**12 + 3, MAX_NODES),
    # raw ValueErrors: "Maximum allowed dimension exceeded" from the lift,
    # "Maximum allowed size exceeded" from q_triangulate's arange
    (["spectrum", "--graph", "k3", "--q", str(10**20)], "lift_eigenvalues",
     3 * 10**20 + 3, MAX_NODES),
    (["transfer", "--graph", "k3", "--q", str(10**20)], "q_triangulate",
     3 * 10**20 + 3, MAX_NODES),
    (["triangulate", "--graph", "k3", "--q", str(10**20)], "q_triangulate",
     3 * 10**20 + 3, MAX_NODES),
    (["verify", "--graph", "k3", "--q", str(10**20)], "lift_spectrum",
     3 * 10**20 + 3, MAX_DENSE_NODES),
    # a raw MemoryError from random_connected_graph's n(n-1)/2 candidate pairs
    (["verify", "--trials", "1", "--nmax", "6000"], "make_corpus", 6000, MAX_DENSE_NODES),
    # a corpus graph (n = 3871, m = 2,944,697) whose R_q(G) lift_spectrum
    # refused only after the whole corpus was built: 12.95 s, 819 MB
    (["verify", "--trials", "1", "--nmax", "4096"], "make_corpus trial 0 at q=1",
     3871 + 2944697, MAX_DENSE_NODES),
    # a G under the dense bound whose R_q(G) is over a bound: each ran the
    # dense work on G first, for 6-9 s and 660-800 MB on 2 cores, before refusing
    (["transfer", "--graph", "star:4000", "--q", "1"], "hitting_oracle", 8001, MAX_DENSE_NODES),
    (["verify", "--graph", "cycle:4000", "--q", "1"], "lift_spectrum", 8000, MAX_DENSE_NODES),
    (["spectrum", "--graph", "cycle:4000", "--q", "600"], "lift_eigenvalues",
     4000 + 4000 * 600, MAX_NODES),
], ids=["metrics-star", "spectrum-q1e12", "spectrum-q1e20", "transfer-q1e20",
        "triangulate-q1e20", "verify-q1e20", "verify-nmax6000", "verify-nmax4096",
        "transfer-star4000", "verify-cycle4000", "spectrum-cycle4000-q600"])
def test_oversized_cli_input_exits_2(argv, what, n, bound, capsys):
    out = io.StringIO()
    start = time.perf_counter()
    assert main(argv, out=out) == 2 and out.getvalue() == ""
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == ("", f"error: SizeLimitError: {_message(what, n, bound)}\n")
