from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import trispectra
from trispectra import metrics, transfer
from trispectra.errors import GraphError, InvalidNodeRefError, InvalidQError, SameNodeError
from trispectra.graph import complete_graph, path_graph
from trispectra.iterated import (
    iterated_additive,
    iterated_kemeny,
    iterated_kirchhoff,
    iterated_multiplicative,
)
from trispectra.metrics import (
    compute_metrics,
    hitting_oracle,
    kirchhoff_indices,
    resistance_oracle,
)
from trispectra.spectral import eigendecompose, lift_spectrum
from trispectra.transfer import (
    GraphSummary,
    new_old_resistance_sum,
    new_pair_resistance_sum,
    transfer_additive,
    transfer_hitting,
    transfer_kemeny,
    transfer_kirchhoff,
    transfer_multiplicative,
    transfer_resistance,
    transferred_summary,
)
from trispectra.triangulation import TriangulationResult, new_node_generator, q_triangulate

K2 = GraphSummary(
    n=2, m=1,
    kemeny=Fraction(1, 2), kirchhoff=Fraction(1),
    additive=Fraction(2), multiplicative=Fraction(1),
    hitting=np.array([[Fraction(0), Fraction(1)],
                      [Fraction(1), Fraction(0)]], dtype=object),
    resistance=np.array([[Fraction(0), Fraction(1)],
                         [Fraction(1), Fraction(0)]], dtype=object),
    graph=path_graph(2),
)
# P3 = 1-2-3 and K3, their values given by hand
P3 = GraphSummary(
    n=3, m=2,
    kemeny=Fraction(3, 2), kirchhoff=Fraction(4), additive=Fraction(10),
    multiplicative=Fraction(6),
    hitting=np.array([[0, 1, 4], [3, 0, 3], [4, 1, 0]], dtype=object) * Fraction(1),
    resistance=np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=object) * Fraction(1),
    graph=path_graph(3),
)
_OFF = np.ones((3, 3), dtype=object) - np.eye(3, dtype=int)
K3 = GraphSummary(
    n=3, m=3,
    kemeny=Fraction(4, 3), kirchhoff=Fraction(2), additive=Fraction(8),
    multiplicative=Fraction(8),
    hitting=_OFF * Fraction(2), resistance=_OFF * Fraction(2, 3),
    graph=complete_graph(3),
)


@pytest.fixture(scope="module")
def k3_summary():
    return GraphSummary.from_graph(complete_graph(3))


def test_kemeny_closed_loop():
    # R_1(K2) = K3, so the transfer must land on K(K3) = 4/3
    assert transfer_kemeny(1, K2) == Fraction(4, 3)


def test_kemeny_k3(k3_summary):
    assert float(transfer_kemeny(1, k3_summary)) == pytest.approx(14 / 3)


def test_kemeny_lower_bound(k3_summary):
    for q in (1, 5, 20):
        assert transfer_kemeny(q, k3_summary) >= k3_summary.m * q - k3_summary.n


def test_scalar_closed_loops_k2():
    # every K3 quantity reproduced from the K2 summary
    assert transfer_multiplicative(1, K2) == 8
    assert transfer_additive(1, K2) == 8
    assert transfer_kirchhoff(1, K2) == 2
    assert new_old_resistance_sum(1, K2) == Fraction(4, 3)
    assert new_pair_resistance_sum(1, K2) == 0


def test_scalar_values_k3(k3_summary):
    assert float(transfer_multiplicative(1, k3_summary)) == pytest.approx(84.0)
    assert float(transfer_additive(1, k3_summary)) == pytest.approx(61.0)
    assert float(transfer_kirchhoff(1, k3_summary)) == pytest.approx(65 / 6)
    assert float(new_old_resistance_sum(1, k3_summary)) == pytest.approx(37 / 6)
    assert float(new_pair_resistance_sum(1, k3_summary)) == pytest.approx(10 / 3)


def test_multiplicative_is_2m_kemeny(k3_summary):
    # Kf* = 2m Kemeny on every connected graph, so R_q(G), with m(2q+1)
    # edges, keeps it; the iterated closed form relies on this
    for q in (1, 2, 3):
        mt = 2 * k3_summary.m * (2 * q + 1)
        assert float(transfer_multiplicative(q, k3_summary)) == pytest.approx(
            mt * float(transfer_kemeny(q, k3_summary))
        )
        for summ in (K2, P3, K3):
            assert summ.multiplicative == 2 * summ.m * summ.kemeny
            mt = 2 * summ.m * (2 * q + 1)
            assert transfer_multiplicative(q, summ) == mt * transfer_kemeny(q, summ)


def test_hitting_cases_k2():
    # closed loops against K3, where every hitting time is 2; node 3 is
    # the new node of R_1(K2)
    assert transfer_hitting(1, K2, 1, 2) == 2
    assert transfer_hitting(1, K2, 3, 1) == 2
    assert transfer_hitting(1, K2, 1, 3) == 2


def test_resistance_cases_k2():
    assert transfer_resistance(1, K2, 1, 2) == Fraction(2, 3)
    assert transfer_resistance(1, K2, 3, 1) == Fraction(2, 3)
    # nodes 3 and 4 of R_2(K2), two copies on the same edge, collapse to
    # resistance exactly 1
    assert transfer_resistance(2, K2, 3, 4) == 1


def test_same_node_handling():
    with pytest.raises(SameNodeError):
        transfer_hitting(1, K2, 1, 1)
    with pytest.raises(SameNodeError):
        transfer_hitting(2, K2, 4, 4)
    assert transfer_resistance(1, K2, 3, 3) == 0


def test_invalid_refs():
    # R_q(K2) has nodes 1..2 + q; 0 and 3 + q are not nodes of it
    for q in (1, 2):
        for bad in (0, 3 + q):
            for f in (transfer_hitting, transfer_resistance):
                with pytest.raises(InvalidNodeRefError):
                    f(q, K2, bad, 1)
                with pytest.raises(InvalidNodeRefError):
                    f(q, K2, 3, bad)
    # a summary without G's matrices or graph cannot answer a two-node call
    no_matrices = GraphSummary.from_graph(complete_graph(3), with_matrices=False)
    no_graph = GraphSummary(
        n=2, m=1, kemeny=K2.kemeny, kirchhoff=K2.kirchhoff,
        additive=K2.additive, multiplicative=K2.multiplicative,
        hitting=K2.hitting, resistance=K2.resistance,
    )
    for summ in (no_matrices, no_graph):
        for f in (transfer_hitting, transfer_resistance):
            for a, b in ((1, 2), (3, 1)):
                with pytest.raises(InvalidNodeRefError):
                    f(1, summ, a, b)


def test_non_integer_and_out_of_range_refs():
    for bad in (1.5, 3.0, True, "3", None):
        for f in (transfer_hitting, transfer_resistance):
            with pytest.raises(InvalidNodeRefError):
                f(1, K2, bad, 2)
            with pytest.raises(InvalidNodeRefError):
                f(1, K2, 1, bad)
    # numpy integers are node numbers too, old and new
    assert transfer_hitting(1, K2, np.int64(1), 2) == 2
    assert transfer_hitting(1, K2, np.int64(3), np.int64(1)) == 2
    assert transfer_resistance(2, K2, np.int32(3), np.int64(4)) == 1


def test_hand_built_summary_every_new_node_vs_oracle():
    # the hand-built P3 at q = 2: new nodes 4..7 are edge (1, 2) and edge
    # (2, 3), copy 1, then both again, copy 2; the old/old pairs ride along
    q = 2
    r = q_triangulate(path_graph(3), q).result
    hit, res = hitting_oracle(r), resistance_oracle(r)
    new, old = range(4, r.n + 1), range(1, 4)
    pairs = [(x, j) for x in new for j in old] + [(j, x) for x in new for j in old]
    pairs += [(x, y) for x in new for y in new if x != y]
    pairs += [(i, j) for i in old for j in old if i != j]
    for a, b in pairs:
        assert float(transfer_hitting(q, P3, a, b)) == pytest.approx(
            hit[a - 1, b - 1], rel=1e-12
        )
        assert float(transfer_resistance(q, P3, a, b)) == pytest.approx(
            res[a - 1, b - 1], rel=1e-12
        )


def _paper_cases(q, summ, a, b):
    """(hitting a -> b, resistance a, b) in R_q(G) by the paper's case
    formulas: four directed hitting cases and three resistance cases."""
    m, c = summ.m, Fraction(2 * q + 1, 2 * (q + 2))

    def T(i, j):
        return summ.hitting[i - 1, j - 1]

    def r(i, j):
        return summ.resistance[i - 1, j - 1]

    def edge(x):
        if x <= summ.n:
            return None
        return summ.graph.edges[new_node_generator(summ.n, m, q, x)[0] - 1]

    ga, gb = edge(a), edge(b)
    if ga is None and gb is None:
        return Fraction(4 * q + 2, q + 2) * T(a, b), Fraction(2, q + 2) * r(a, b)
    if gb is None:
        (s, t), j = ga, b
        return (1 + Fraction(2 * q + 1, q + 2) * (T(s, j) + T(t, j)),
                Fraction(1, 2) + (2 * r(s, j) + 2 * r(t, j) - r(s, t)) / (2 * (q + 2)))
    if ga is None:
        (s, t), j = gb, a
        return (m * (2 * q + 1) - 1 + c * (2 * (T(j, s) + T(j, t)) - (T(t, s) + T(s, t))),
                Fraction(1, 2) + (2 * r(s, j) + 2 * r(t, j) - r(s, t)) / (2 * (q + 2)))
    (s, t), (u, v) = ga, gb
    return (
        m * (2 * q + 1)
        + c * (T(s, u) + T(t, u) + T(s, v) + T(t, v) - (T(u, v) + T(v, u))),
        1 + (r(s, u) + r(t, u) + r(s, v) + r(t, v) - r(u, v) - r(s, t)) / (2 * (q + 2)),
    )


@pytest.mark.parametrize("summ", [K2, P3, K3], ids=["K2", "P3", "K3"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_one_formula_equals_paper_cases_exactly(summ, q):
    # every ordered pair of distinct nodes of R_q(G), in exact rationals
    nodes = range(1, summ.n + summ.m * q + 1)
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            hit, res = _paper_cases(q, summ, a, b)
            assert type(hit) is type(res) is Fraction
            assert transfer_hitting(q, summ, a, b) == hit
            assert transfer_resistance(q, summ, a, b) == res


def test_summary_fields_must_fit_n_and_m(k3_summary):
    # each input used to give a raw IndexError or an answer for the wrong m
    for field, change in (
        # a graph with another n, another m, and bare edges for a Graph;
        # build_graph alone validates an edge list
        ("graph", {"graph": path_graph(4)}),
        ("graph", {"graph": path_graph(3)}),
        ("graph", {"graph": k3_summary.graph.edges}),
        ("hitting", {"hitting": k3_summary.hitting[:2, :2]}),
        ("graph", {"m": 2}),
        ("resistance", {"resistance": K2.resistance}),
        ("resistance", {"resistance": k3_summary.resistance.tolist()}),
        # n and m themselves: n = -3 gave a Kirchhoff index of -1.5, and
        # m = 2.5 a raw TypeError from transferred_summary
        ("n", {"n": -3, "m": 2}),
        ("n", {"n": 1, "m": 0}),
        ("n", {"n": 3.0}),
        ("n", {"n": True}),
        ("m", {"m": 2.5}),
        ("m", {"m": True}),
        ("m", {"m": 1}),
        ("m", {"m": 4}),
    ):
        with pytest.raises(GraphError, match=f"^{field} must"):
            replace(k3_summary, **change)
        if field in ("n", "m"):
            with pytest.raises(GraphError, match=f"^{field} must"):
                replace(k3_summary, hitting=None, resistance=None, graph=None, **change)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_summary_keeps_numpy_counts_as_python_ints():
    # numpy n and m used to stay int64, so n*m overflowed in the closed
    # forms with only a RuntimeWarning: iterated_additive and
    # iterated_kirchhoff gave wrong values and transfer_additive raised a
    # raw OverflowError
    n, m, kem = 3 * 10**9, 4 * 10**9, Fraction(4, 3)
    python, numpy = (
        GraphSummary(n=n_, m=m_, kemeny=kem, kirchhoff=Fraction(2), additive=Fraction(8),
                     multiplicative=2 * m * kem)
        for n_, m_ in ((n, m), (np.int64(n), np.int64(m)))
    )
    assert type(numpy.n) is int and type(numpy.m) is int
    for fn in (transfer_kemeny, transfer_kirchhoff, transfer_additive, transfer_multiplicative,
               new_old_resistance_sum, new_pair_resistance_sum):
        assert fn(1, numpy) == fn(1, python), fn.__name__
    for fn in (iterated_kemeny, iterated_kirchhoff, iterated_additive, iterated_multiplicative):
        assert fn(numpy, 1, 1) == fn(python, 1, 1), fn.__name__
    got, want = transferred_summary(1, numpy), transferred_summary(1, python)
    assert [getattr(got, f.name) for f in fields(got)] == [getattr(want, f.name) for f in fields(want)]


@pytest.mark.parametrize("build", [
    eigendecompose,
    lambda g: lift_spectrum(eigendecompose(g), 2),
    compute_metrics,
    GraphSummary.from_graph,
    lambda g: q_triangulate(g, 2),
], ids=["Spectrum", "lifted Spectrum", "compute_metrics", "GraphSummary", "TriangulationResult"])
def test_records_compare_and_hash(build):
    # records that carry arrays compare by identity; a TriangulationResult
    # compares its graphs
    a, b = build(complete_graph(3)), build(complete_graph(3))
    assert a == a and hash(a) == hash(a)
    assert (a == b) is isinstance(a, TriangulationResult)
    assert len({a, b}) == (1 if a == b else 2)


def test_compute_metrics_is_the_summary_of_g():
    # one record: either route returns the summary the transfers read,
    # carrying G itself
    g = complete_graph(3)
    for route in ("oracle", "spectral"):
        summ = compute_metrics(g, route)
        assert type(summ) is GraphSummary and summ.graph is g
        assert (summ.n, summ.m) == (g.n, g.m)
    assert transfer.GraphSummary is metrics.GraphSummary
    bare = GraphSummary.from_graph(g, with_matrices=False)
    assert bare.hitting is None and bare.resistance is None and bare.graph is g
    assert [f.name for f in fields(GraphSummary)] == [
        "n", "m", "kemeny", "kirchhoff", "additive", "multiplicative",
        "hitting", "resistance", "graph",
    ]
    assert not hasattr(trispectra, "MetricsReport")


def test_either_route_feeds_the_transfers(small_corpus):
    # the oracle route's summary gives from_graph's values bit for bit, and
    # the spectral route's agrees to rounding, on every old/new pair kind
    for g, q in small_corpus:
        want_summ = GraphSummary.from_graph(g)
        oracle, spectral = compute_metrics(g, "oracle"), compute_metrics(g, "spectral")
        tri = q_triangulate(g, q)
        x1, x2 = tri.new_node_index(1, 1), tri.new_node_index(g.m, q)
        pairs = [(1, 2), (x1, 2), (2, x1)] + ([(x1, x2), (x2, x1)] if x1 != x2 else [])
        for f in (transfer_hitting, transfer_resistance):
            for a, b in pairs:
                want = f(q, want_summ, a, b)
                assert f(q, oracle, a, b) == want
                assert f(q, spectral, a, b) == pytest.approx(want, rel=1e-12, abs=0)


def test_q_validation(k3_summary):
    with pytest.raises(InvalidQError):
        transfer_additive(0, k3_summary)


def test_all_cases_vs_oracle(small_corpus):
    for g, q in small_corpus:
        summ = GraphSummary.from_graph(g)
        tri = q_triangulate(g, q)
        r = tri.result
        hit = hitting_oracle(r)
        res = resistance_oracle(r)
        x1 = tri.new_node_index(1, 1)
        x2 = tri.new_node_index(g.m, q)
        pairs = [(1, g.n), (x1, g.n), (g.n, x1)]
        if x1 != x2:
            pairs += [(x1, x2), (x2, x1)]
        for a, b in pairs:
            assert float(transfer_hitting(q, summ, a, b)) == pytest.approx(
                hit[a - 1, b - 1], rel=1e-8
            )
            assert float(transfer_resistance(q, summ, a, b)) == pytest.approx(
                res[a - 1, b - 1], rel=1e-8
            )
        kir, add, mul = kirchhoff_indices(r, res)
        assert float(transfer_kirchhoff(q, summ)) == pytest.approx(kir, rel=1e-8)
        assert float(transfer_additive(q, summ)) == pytest.approx(add, rel=1e-8)
        assert float(transfer_multiplicative(q, summ)) == pytest.approx(mul, rel=1e-8)
        assert float(new_old_resistance_sum(q, summ)) == pytest.approx(
            res[g.n:, :g.n].sum(), rel=1e-8
        )
        assert float(new_pair_resistance_sum(q, summ)) == pytest.approx(
            float(np.triu(res[g.n:, g.n:], 1).sum()), rel=1e-8, abs=1e-10
        )


def test_copy_index_independence(small_corpus):
    # transfer values ignore the copy index, and the oracle confirms the
    # constructed copies are exchangeable
    for g, q in small_corpus:
        if q < 2:
            continue
        summ = GraphSummary.from_graph(g)
        tri = q_triangulate(g, q)
        res = resistance_oracle(tri.result)
        # nodes n + e and n + m + e are copies 1 and 2 of edge e
        for e in range(1, g.m + 1):
            x1, x2 = g.n + e, g.n + g.m + e
            for f in (transfer_hitting, transfer_resistance):
                assert f(q, summ, x1, 1) == f(q, summ, x2, 1)
                assert f(q, summ, 1, x1) == f(q, summ, 1, x2)
            assert res[x1 - 1, 0] == pytest.approx(res[x2 - 1, 0], abs=1e-9)


def test_kirchhoff_decomposition(small_corpus):
    # plain index = old/old pair sum + cross sum + new/new pair sum
    for g, q in small_corpus:
        summ = GraphSummary.from_graph(g)
        old_old = Fraction(2, q + 2) * sum(
            Fraction(1) * summ.resistance[i, j]
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        total = old_old + new_old_resistance_sum(q, summ) + new_pair_resistance_sum(q, summ)
        assert float(total) == pytest.approx(float(transfer_kirchhoff(q, summ)), rel=1e-8)


def test_transferred_summary_chains():
    s1 = transferred_summary(1, K2)
    assert (s1.n, s1.m) == (3, 3)
    assert s1.kemeny == Fraction(4, 3)
    s2 = transferred_summary(1, s1)
    assert (s2.n, s2.m) == (6, 9)
    assert s2.additive == 61
