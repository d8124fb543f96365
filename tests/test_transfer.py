from fractions import Fraction

import numpy as np
import pytest

from trispectra.errors import InvalidNodeRefError, InvalidQError, SameNodeError
from trispectra.graph import complete_graph
from trispectra.metrics import hitting_oracle, kirchhoff_indices, resistance_oracle
from trispectra.transfer import (
    GraphSummary,
    NewNode,
    OldNode,
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
from trispectra.triangulation import q_triangulate

K2 = GraphSummary(
    n=2, m=1,
    kemeny=Fraction(1, 2), kirchhoff=Fraction(1),
    additive=Fraction(2), multiplicative=Fraction(1),
    hitting=np.array([[Fraction(0), Fraction(1)],
                      [Fraction(1), Fraction(0)]], dtype=object),
    resistance=np.array([[Fraction(0), Fraction(1)],
                         [Fraction(1), Fraction(0)]], dtype=object),
    edge_set=frozenset({(1, 2)}),
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
    for q in (1, 2, 3):
        mt = 2 * k3_summary.m * (2 * q + 1)
        assert float(transfer_multiplicative(q, k3_summary)) == pytest.approx(
            mt * float(transfer_kemeny(q, k3_summary))
        )


def test_hitting_cases_k2():
    # closed loops against K3, where every hitting time is 2
    assert transfer_hitting(1, K2, OldNode(1), OldNode(2)) == 2
    assert transfer_hitting(1, K2, NewNode(1, 2), OldNode(1)) == 2
    assert transfer_hitting(1, K2, OldNode(1), NewNode(1, 2)) == 2


def test_resistance_cases_k2():
    assert transfer_resistance(1, K2, OldNode(1), OldNode(2)) == Fraction(2, 3)
    assert transfer_resistance(1, K2, NewNode(1, 2), OldNode(1)) == Fraction(2, 3)
    # two copies on the same edge collapse to resistance exactly 1
    assert transfer_resistance(2, K2, NewNode(1, 2, 1), NewNode(1, 2, 2)) == 1


def test_same_node_handling():
    with pytest.raises(SameNodeError):
        transfer_hitting(1, K2, OldNode(1), OldNode(1))
    with pytest.raises(SameNodeError):
        transfer_hitting(2, K2, NewNode(1, 2, 1), NewNode(1, 2, 1))
    assert transfer_resistance(1, K2, NewNode(1, 2, 1), NewNode(1, 2, 1)) == 0


def test_invalid_refs():
    with pytest.raises(InvalidNodeRefError):
        transfer_hitting(1, K2, OldNode(3), OldNode(1))
    with pytest.raises(InvalidNodeRefError):
        transfer_resistance(1, K2, NewNode(1, 1), OldNode(1))
    k3 = GraphSummary.from_graph(complete_graph(3))
    bad = GraphSummary(
        n=3, m=3, kemeny=k3.kemeny, kirchhoff=k3.kirchhoff,
        additive=k3.additive, multiplicative=k3.multiplicative,
        hitting=k3.hitting, resistance=k3.resistance,
        edge_set=frozenset({(1, 2), (1, 3)}),
    )
    with pytest.raises(InvalidNodeRefError):
        transfer_hitting(1, bad, NewNode(2, 3), OldNode(1))


def test_non_integer_and_out_of_range_refs():
    with pytest.raises(InvalidNodeRefError):
        transfer_hitting(1, K2, OldNode(1.0), OldNode(2))
    with pytest.raises(InvalidNodeRefError):
        transfer_resistance(1, K2, OldNode(True), OldNode(2))
    with pytest.raises(InvalidNodeRefError):
        transfer_hitting(1, K2, NewNode(1, 2, copy=99), OldNode(1))
    with pytest.raises(InvalidNodeRefError):
        transfer_resistance(2, K2, NewNode(1, 2, copy=0), OldNode(1))
    no_edge_set = GraphSummary(
        n=2, m=1, kemeny=K2.kemeny, kirchhoff=K2.kirchhoff,
        additive=K2.additive, multiplicative=K2.multiplicative,
        hitting=K2.hitting, resistance=K2.resistance,
    )
    with pytest.raises(InvalidNodeRefError):
        transfer_hitting(1, no_edge_set, NewNode(1, 3), OldNode(1))
    # numpy integers are indices too
    assert transfer_hitting(1, K2, OldNode(np.int64(1)), OldNode(2)) == 2


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
        e_last = g.m
        x1 = tri.new_node_index(1, 1)
        x2 = tri.new_node_index(e_last, q)
        s, t = g.edges[0]
        u, v = g.edges[e_last - 1]
        pairs = [
            (OldNode(1), OldNode(g.n), 0, g.n - 1),
            (NewNode(s, t, 1), OldNode(g.n), x1 - 1, g.n - 1),
            (OldNode(g.n), NewNode(s, t, 1), g.n - 1, x1 - 1),
        ]
        if x1 != x2:
            pairs.append((NewNode(s, t, 1), NewNode(u, v, q), x1 - 1, x2 - 1))
            pairs.append((NewNode(u, v, q), NewNode(s, t, 1), x2 - 1, x1 - 1))
        for a, b, ia, ib in pairs:
            assert float(transfer_hitting(q, summ, a, b)) == pytest.approx(
                hit[ia, ib], rel=1e-8
            )
            assert float(transfer_resistance(q, summ, a, b)) == pytest.approx(
                res[ia, ib], rel=1e-8
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
        s, t = g.edges[0]
        a1 = transfer_resistance(q, summ, NewNode(s, t, 1), OldNode(1))
        a2 = transfer_resistance(q, summ, NewNode(s, t, 2), OldNode(1))
        assert a1 == a2
        x1 = tri.new_node_index(1, 1)
        x2 = tri.new_node_index(1, 2)
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
