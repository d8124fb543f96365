import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import trispectra
from trispectra.errors import GraphError, InvalidKError, InvalidNodeRefError, InvalidQError
from trispectra.graph import build_graph, complete_graph
from trispectra.triangulation import (
    iterate_triangulation,
    new_node_generator,
    predicted_counts,
    q_triangulate,
)


def test_k2_q1_closes_triangle():
    tri = q_triangulate(complete_graph(2), 1)
    assert tri.result.edges == ((1, 2), (1, 3), (2, 3))
    assert new_node_generator(2, 1, 1, 3) == (1, 1)


def test_k3_q1_sizes_and_degrees():
    tri = q_triangulate(complete_graph(3), 1)
    r = tri.result
    assert (r.n, r.m) == (6, 9)
    assert sorted(r.degrees) == [2, 2, 2, 4, 4, 4]


def _naive_triangulation(g, q):
    """R_q(G) through build_graph, from the edge list written out by hand."""
    edges = list(g.edges)
    for x, (s, t) in enumerate(g.edges * q, start=g.n + 1):
        edges += [(s, x), (t, x)]
    return build_graph(g.n + g.m * q, edges)


def test_q_triangulate_matches_build_graph(acceptance_corpus):
    for q in (1, 2, 3):
        webs = [complete_graph(3)]  # R_{q,k}(K3) for k <= 2, so results reach k = 3
        for _ in range(2):
            webs.append(_naive_triangulation(webs[-1], q))
        for g in [g for g, _ in acceptance_corpus] + webs:
            got, want = q_triangulate(g, q).result, _naive_triangulation(g, q)
            assert got == want and hash(got) == hash(want)
            assert not got._ends.flags.writeable
            assert (got.n, got.edges) == (want.n, want.edges)
            assert all(type(i) is int for edge in got.edges for i in edge)


def test_edge_tuple_is_built_on_first_read():
    # the endpoint array is a Graph's one store; the tuple is a view of it
    r = q_triangulate(complete_graph(3), 2).result
    assert "edges" not in r.__dict__
    assert r.edges == tuple(zip(*(r._ends.T + 1).tolist())) and "edges" in r.__dict__
    assert r.edges is r.edges


def test_iterated_webs_are_stored_once():
    # a tuple of Python pairs beside each endpoint array put R_{1,12}(K3)'s
    # peak at 430 MB (118 MB without, on Linux x86-64).  The child reads
    # VmHWM, its own address space's peak: its ru_maxrss also keeps the
    # peak of the process that spawned it, here the whole test run's
    if sys.platform != "linux":
        pytest.skip("VmHWM is read from Linux's /proc/self/status")
    code = ("from trispectra import complete_graph, iterate_triangulation; "
            "iterate_triangulation(complete_graph(3), 1, 12); "
            "print(next(l.split()[1] for l in open('/proc/self/status') "
            "if l.startswith('VmHWM:')))")
    src = str(Path(trispectra.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) <= 200 * 1024


def test_k2_q2():
    tri = q_triangulate(complete_graph(2), 2)
    assert (tri.result.n, tri.result.m) == (4, 5)


def test_new_node_indexing_matches_block_structure():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    q = 3
    tri = q_triangulate(g, q)
    for x, e, f in tri.provenance.tolist():
        assert (e, f) == new_node_generator(g.n, g.m, q, x)
        assert x == g.n + (f - 1) * g.m + e == tri.new_node_index(e, f)
        s, t = g.edges[e - 1]
        assert set(np.flatnonzero(tri.result.adjacency_matrix()[x - 1]) + 1) == {s, t}


def test_new_node_index_rejects_bad_edge_or_copy():
    # K3 at q = 2 has new nodes 4..9; unchecked, these would read old
    # node 3, the copy-2 node 7, a node 10 that does not exist, and 4.5
    tri = q_triangulate(complete_graph(3), 2)
    for edge, copy in ((0, 1), (4, 1), (1, 3), (1.5, 1), (1, 0), (True, 1), (1, True)):
        with pytest.raises(InvalidNodeRefError):
            tri.new_node_index(edge, copy)
    assert tri.new_node_index(3, 2) == 9
    assert tri.new_node_index(np.int64(1), np.int64(1)) == 4


def test_degree_law_and_counts(small_corpus):
    for g, q in small_corpus:
        tri = q_triangulate(g, q)
        r = tri.result
        assert (r.n, r.m) == predicted_counts(g.n, g.m, q, 1)
        expected = Counter((q + 1) * d for d in g.degrees)
        expected[2] += g.m * q
        assert Counter(r.degrees.tolist()) == expected


def test_provenance_bijection(small_corpus):
    # the provenance rows are new_node_generator's on every new node, in
    # index order, and new_node_index inverts them
    for g, q in small_corpus:
        tri = q_triangulate(g, q)
        assert tri.provenance.shape == (g.m * q, 3) and tri.provenance.dtype == np.int64
        x, e, f = tri.provenance.T.tolist()
        pairs = list(zip(e, f))
        assert x == list(range(g.n + 1, g.n + g.m * q + 1))
        assert pairs == [new_node_generator(g.n, g.m, q, y) for y in x]
        assert [tri.new_node_index(e, f) for e, f in pairs] == x
        assert set(pairs) == {(e, f) for e in range(1, g.m + 1) for f in range(1, q + 1)}


def test_new_node_generator_rejects_other_nodes():
    # K3 at q = 2: old nodes 1..3, new nodes 4..9
    for x in (1, 3, 0, -1, 10, 4.0, 4.5, True, "4", None):
        with pytest.raises(InvalidNodeRefError):
            new_node_generator(3, 3, 2, x)
    assert new_node_generator(3, 3, 2, 4) == (1, 1)
    assert new_node_generator(3, 3, 2, np.int64(9)) == (3, 2)


def test_invalid_q():
    with pytest.raises(InvalidQError):
        q_triangulate(complete_graph(3), 0)
    with pytest.raises(InvalidQError):
        q_triangulate(complete_graph(3), True)
    with pytest.raises(InvalidQError):
        predicted_counts(3, 3, -1, 2)
    with pytest.raises(InvalidQError):
        q_triangulate(complete_graph(3), 1.5)


def test_numpy_integer_q():
    tri = q_triangulate(complete_graph(3), np.int64(2))
    assert type(tri.q) is int
    assert tri.result.edges == q_triangulate(complete_graph(3), 2).result.edges


def test_invalid_k():
    k3 = complete_graph(3)
    for bad in (1.5, -1, True):
        with pytest.raises(InvalidKError):
            iterate_triangulation(k3, 1, bad)
        with pytest.raises(InvalidKError):
            predicted_counts(3, 3, 1, bad)
    assert predicted_counts(3, 3, 1, np.int64(2)) == predicted_counts(3, 3, 1, 2)
    assert len(iterate_triangulation(k3, 1, np.int64(2))) == 2


def test_iterate_returns_all_steps():
    steps = iterate_triangulation(complete_graph(3), 1, 2)
    assert len(steps) == 2
    assert (steps[0].result.n, steps[0].result.m) == (6, 9)
    # counts via the closed form, confirmed by explicit construction
    assert (steps[1].result.n, steps[1].result.m) == (15, 27)
    assert (steps[1].result.n, steps[1].result.m) == predicted_counts(3, 3, 1, 2)


def test_iterate_k0_empty():
    g = complete_graph(3)
    assert iterate_triangulation(g, 2, 0) == []


def test_iterate_k2_q1_is_k3():
    steps = iterate_triangulation(complete_graph(2), 1, 1)
    assert steps[0].result.edges == complete_graph(3).edges


def test_predicted_counts():
    assert predicted_counts(3, 3, 1, 1) == (6, 9)
    assert predicted_counts(5, 7, 2, 0) == (5, 7)
    assert predicted_counts(3, 3, 3, 2) == (75, 147)


def test_predicted_counts_rejects_bad_sizes():
    # no connected simple graph has these sizes: GraphSummary's rule
    # n >= 2, n - 1 <= m <= n(n-1)/2; the last three used to give counts
    for n, m in ((3.5, 3), (3, 3.0), (0, 3), (3, 0), (True, 3), ("3", 3),
                 (3, 1), (2, 5), (1, 1)):
        with pytest.raises(GraphError):
            predicted_counts(n, m, 1, 1)
    assert predicted_counts(np.int64(3), np.int64(3), 1, 40) == predicted_counts(3, 3, 1, 40)


def test_predicted_counts_match_double_construction():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    steps = iterate_triangulation(g, 3, 2)
    assert (steps[-1].result.n, steps[-1].result.m) == (75, 147)
