import hashlib
import io
import time

import numpy as np
import pytest

import trispectra
from trispectra import verify
from trispectra.cli import main
from trispectra.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    GraphError,
    SelfLoopError,
)
from trispectra.graph import (
    EdgeListParseError,
    Graph,
    build_graph,
    builtin_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    is_bipartite,
    parse_edge_list,
    path_graph,
    star_graph,
)


def test_build_k3():
    g = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    assert g.n == 3 and g.m == 3
    assert list(g.degrees) == [2, 2, 2]


def test_build_k2():
    g = build_graph(2, [(2, 1)])
    assert g.edges == ((1, 2),)
    assert list(g.degrees) == [1, 1]


def test_canonical_edge_order():
    g = build_graph(4, [(4, 3), (2, 1), (3, 1)])
    assert g.edges == ((1, 2), (1, 3), (3, 4))


def test_disconnected_rejected():
    for n, edges, reason in (
        (4, [(1, 2), (3, 4)], "4 nodes need at least 3 edges, got 2"),
        (5, [(1, 2), (1, 3), (2, 3), (4, 5)], "node 4 unreachable from node 1"),
    ):
        with pytest.raises(DisconnectedError) as info:
            build_graph(n, edges)
        assert str(info.value) == f"graph is disconnected: {reason}"


def test_huge_node_count_is_disconnected_not_allocated():
    # a node count past numpy's largest dimension reached np.full in the
    # BFS colouring and raised a raw ValueError
    with pytest.raises(DisconnectedError) as info:
        build_graph(10**20, [(1, 2)])
    assert str(info.value) == (
        f"graph is disconnected: {10**20} nodes need at least {10**20 - 1} edges, got 1"
    )


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError, match="node 2"):
        build_graph(3, [(1, 2), (2, 2), (2, 3)])


def test_duplicate_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(1, 2), (2, 1), (2, 3)])


def test_empty_rejected():
    with pytest.raises(EmptyGraphError):
        build_graph(0, [])
    # one node and no edges: no walk, and m = 0 in every 1/(2m)
    with pytest.raises(EmptyGraphError):
        build_graph(1, [])


def test_out_of_range_endpoint_is_plain_graph_error():
    # a bad endpoint is not an empty graph, so callers that catch
    # EmptyGraphError must not see it
    with pytest.raises(GraphError) as info:
        build_graph(3, [(1, 5)])
    assert type(info.value) is GraphError
    assert not isinstance(info.value, EmptyGraphError)


@pytest.mark.parametrize("edges, shown", [
    ([(1.9, 2.2), (2, 3)], "(1.9, 2.2)"),
    ([(True, 2), (2, 3)], "(True, 2)"),
    ([("1", "2"), (2, 3)], "('1', '2')"),
    ([(1, 2, 3), (2, 3)], "(1, 2, 3)"),
    ([(1,), (2, 3)], "(1,)"),
    ([(1, np.float64(2.0)), (2, 3)], "(1, np.float64(2.0))"),
    ([(2.0, 3), (1, 2)], "(2.0, 3)"),
    ([5, (2, 3)], "5"),
])
def test_non_integer_edge_is_graph_error(edges, shown):
    # int() would truncate (1.9, 2.2) to the edge (1, 2) and read True as node 1
    with pytest.raises(GraphError) as info:
        build_graph(3, edges)
    assert type(info.value) is GraphError
    assert str(info.value) == f"edge {shown} is not a pair of integer node numbers"


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, np.float64(3.0)])
def test_non_integer_node_count_is_graph_error(n):
    with pytest.raises(GraphError) as info:
        build_graph(n, [(1, 2), (2, 3)])
    assert str(info.value) == f"node count must be an integer, got {n!r}"


def test_numpy_integers_build_python_ints():
    g = build_graph(np.int64(3), [(np.int64(2), np.int32(1)), (np.int64(3), 2)])
    assert g == build_graph(3, [(1, 2), (2, 3)])
    assert type(g.n) is int
    assert all(type(x) is int for e in g.edges for x in e)


_BUILDERS = [complete_graph, cycle_graph, path_graph, star_graph]


@pytest.mark.parametrize("size", [2.5, "3", None, True, np.float64(3.0)])
@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_builder_rejects_non_integer_size(builder, size):
    # a float, string or None gave a raw TypeError from range, and
    # star_graph(True) built K2
    with pytest.raises(GraphError) as info:
        builder(size)
    assert type(info.value) is GraphError
    assert str(info.value).endswith(f"count must be an integer, got {size!r}")


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_builder_takes_numpy_sizes(builder):
    assert builder(np.int64(4)) == builder(4)
    with pytest.raises(EmptyGraphError):
        builder(np.int64(0))


#: the smallest size each builder accepts
_SMALLEST = {complete_graph: 2, cycle_graph: 3, path_graph: 2, star_graph: 1}


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_builder_equals_its_validated_edge_list(builder):
    # the builders write the endpoint array themselves, so build_graph's
    # checks are the independent witness of its order and validity
    for size in (*range(_SMALLEST[builder], 65), 500, 501):
        g = builder(size)
        assert g == build_graph(g.n, g.edges) and type(g.n) is int
        assert g._ends.dtype == np.int64 and g._ends.flags.c_contiguous


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_builder_sends_no_edge_list_through_build_graph(monkeypatch, builder):
    # a tuple per edge through build_graph's checks took 3.0 s and 415 MB
    # for path_graph(2097151) in a fresh process, against 0.07 s and 76 MB
    def refuse(n, edges):
        raise RuntimeError("build_graph called")

    monkeypatch.setattr(trispectra.graph, "build_graph", refuse)
    assert builder(5).n == 5 + (builder is star_graph)
    with pytest.raises(RuntimeError, match="build_graph called"):
        complete_graph(1)  # n < 2 keeps build_graph's messages


def test_degree_sum_is_2m(small_corpus):
    for g, _ in small_corpus:
        assert g.degrees.sum() == 2 * g.m


def test_bipartite_detection():
    # the flag alone; the parts are the 2-colouring, node 1 coloured 0
    k2, c4 = build_graph(2, [(1, 2)]), cycle_graph(4)
    assert is_bipartite(k2) is True and k2._colours.tolist() == [0, 1]
    assert is_bipartite(c4) is True and c4._colours.tolist() == [0, 1, 0, 1]
    assert is_bipartite(complete_graph(3)) is False


def test_incidence_identity(small_corpus):
    # B B^T = A + D, exactly, in integers
    for g, _ in small_corpus:
        b = g.incidence_matrix()
        assert b.dtype.kind == "i"
        assert np.array_equal(b @ b.T, g.adjacency_matrix() + np.diag(g.degrees))
        assert (b.sum(axis=0) == 2).all()


def test_incidence_rank_bipartiteness(small_corpus):
    # rank n-1 iff bipartite, n otherwise
    for g, _ in small_corpus:
        b = g.incidence_matrix().astype(float)
        svals = np.linalg.svd(b, compute_uv=False)
        rank = int(np.sum(svals > 1e-9 * svals[0]))
        expected = g.n - 1 if is_bipartite(g) else g.n
        assert rank == expected


def test_transition_and_stationary(small_corpus):
    for g, _ in small_corpus:
        t = g.transition_matrix()
        assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-12
        pi = g.stationary_distribution()
        assert np.abs(pi @ t - pi).max() < 1e-12
        p = g.normalized_adjacency()
        assert np.abs(p - p.T).max() == 0.0


def test_normalized_adjacency_values():
    k3 = complete_graph(3)
    p = k3.normalized_adjacency()
    assert p[0, 1] == pytest.approx(0.5)
    k2 = complete_graph(2)
    assert k2.normalized_adjacency()[0, 1] == pytest.approx(1.0)
    s3 = star_graph(3)
    assert s3.normalized_adjacency()[0, 1] == pytest.approx(1.0 / np.sqrt(3))


def test_edge_list_roundtrip():
    g = path_graph(4)
    text = format_edge_list(g)
    assert parse_edge_list(text).edges == g.edges


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# comment\n3 2\n1 2\n2 3  # trailing\n")
    assert g.n == 3 and g.m == 2
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_edge_list("3 2\n1 2\nbogus line\n")
    assert issubclass(EdgeListParseError, GraphError)
    assert trispectra.EdgeListParseError is EdgeListParseError


#: SHA-256 of repr([(n, q, edges), ...]) of the acceptance corpus, of the
#: seed-7 default corpus of ``verify`` and ``run_all``, and of small_corpus,
#: as the draw through Python tuples and build_graph made them
_CORPUS_DIGESTS = (
    "527e12d394ded90785c9446212c60ea6c09bea1fbbbc005729d5a6260f206cc5",
    "130ad34ea56e912863bce6466973fdadb513a75d63a06a3fcd7dcf33c5a911c3",
    "21047f2241c2cfd4c68d274a01cbce8716c36995c2f836e9d8d36720e4a03357",
)


def test_corpus_graphs_are_pinned(acceptance_corpus, small_corpus):
    default = verify.make_corpus(7, 30, 10, 3)
    for corpus, digest in zip((acceptance_corpus, default, small_corpus), _CORPUS_DIGESTS):
        edges = repr([(g.n, q, g.edges) for g, q in corpus]).encode()
        assert hashlib.sha256(edges).hexdigest() == digest


@pytest.mark.parametrize("bipartite", [False, True])
def test_random_graph_is_connected_of_requested_parity(bipartite):
    # build_graph raises DisconnectedError for a draw that is not connected
    rng = np.random.default_rng(34)
    for nmax in (3, 4, 6, 12, 40):
        for _ in range(20):
            g = verify.random_connected_graph(rng, nmax, bipartite)
            assert g == build_graph(g.n, g.edges) and g.n <= nmax
            assert is_bipartite(g) is bipartite


def test_builtin_graphs():
    assert builtin_graph("k2").m == 1
    assert builtin_graph("cycle:5").m == 5
    assert builtin_graph("path:4").m == 3
    assert builtin_graph("star:3").n == 4
    with pytest.raises(GraphError, match="^unknown builtin graph 'torus:3'$"):
        builtin_graph("torus:3")
    # k2/k3 take no size, and cycle/path/star only an integer one
    for name in ("k2:junk", "k3:99", "k3:", "cycle", "cycle:x", "path:", "path:2.5", "star:2:3"):
        with pytest.raises(GraphError, match=f"^builtin '{name.partition(':')[0]}' "):
            builtin_graph(name)


# ---- networkx as a third oracle for graph structure --------------------


def _check_against_networkx(nx, n, edges):
    """build_graph's connectivity verdict, its reason (too few edges for
    n nodes, else the lowest unreached node), and is_bipartite's verdict,
    against networkx; on a bipartite graph also the 2-colouring
    ``_colours`` that kernel_sum_residual reads, and on a disconnected
    one the reach flags of ``_colours`` on a raw, unvalidated Graph."""
    ref = nx.Graph()
    ref.add_nodes_from(range(1, n + 1))
    ref.add_edges_from(edges)
    if not nx.is_connected(ref):
        component = nx.node_connected_component(ref, 1)
        if len(edges) < n - 1:
            reason = f"{n} nodes need at least {n - 1} edges, got {len(edges)}"
        else:
            reason = f"node {min(set(ref) - component)} unreachable from node 1"
        with pytest.raises(DisconnectedError, match=f"^graph is disconnected: {reason}$"):
            build_graph(n, edges)
        ends = np.array(sorted((min(e), max(e)) for e in edges), np.int64).reshape(-1, 2)
        raw = Graph(n=n, _ends=ends - 1)
        assert (raw._colours >= 0).tolist() == [v in component for v in range(1, n + 1)]
        return False
    g = build_graph(n, edges)
    flag = is_bipartite(g)
    assert flag == nx.is_bipartite(ref)
    if flag:
        colour = nx.bipartite.color(ref)
        assert g._colours.tolist() == [int(colour[v] != colour[1]) for v in range(1, n + 1)]
    return True


def test_structure_matches_networkx(acceptance_corpus):
    nx = pytest.importorskip("networkx")
    from trispectra.triangulation import q_triangulate

    for g, q in acceptance_corpus:
        for graph in (g, q_triangulate(g, q).result):
            assert _check_against_networkx(nx, graph.n, graph.edges)
    rng = np.random.default_rng(20240)
    connected = []
    for _ in range(300):
        n = int(rng.integers(2, 13))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        p = rng.uniform(0.05, 0.6)
        connected.append(_check_against_networkx(nx, n, [e for e in pairs if rng.random() < p]))
    assert 30 <= sum(connected) <= 270


def test_long_paths_cycles_and_stars_match_networkx():
    # the shapes that the size bounds admit at 2**21 nodes, here at up to
    # 501 nodes: as built, with their nodes shuffled so that the search
    # starts anywhere along them, and with one more node that nothing reaches
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(29)
    for n in (2, 3, 4, 500, 501):
        for g in (path_graph(n), cycle_graph(max(n, 3)), star_graph(n - 1)):
            label = np.concatenate([[0], rng.permutation(g.n) + 1])
            shuffled = [(int(label[i]), int(label[j])) for i, j in g.edges]
            for size, edges in ((g.n, g.edges), (g.n, shuffled), (g.n + 1, g.edges)):
                assert _check_against_networkx(nx, size, edges) == (size == g.n)


@pytest.mark.parametrize("name", ["path:100000", "cycle:100000"])
def test_long_path_and_cycle_build_in_linear_time(name):
    # the colouring swept every edge once per BFS level, so each of these
    # took about 30 s; a search takes about 0.1 s.  The builders colour
    # nothing, so the colouring is timed with the build
    start = time.perf_counter()
    g = builtin_graph(name)
    colours = g._colours
    assert time.perf_counter() - start < 2.0
    assert np.array_equal(colours, np.arange(g.n) % 2)


def test_long_path_metrics_refused_fast(capsys):
    # the build took about 30 s before the size bound was reached
    start = time.perf_counter()
    assert main(["metrics", "--graph", "path:100000"], out=io.StringIO()) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == ("", "error: SizeLimitError: hitting_oracle on 100000 "
                                   "nodes exceeds the bound of 4096 nodes\n")
