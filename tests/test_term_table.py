"""The term table of ``trispectra.iterated`` against what it comes from,
against the paper's printed forms, and in its leading terms.

M(q) is solved from the transfers at ten points, so it must reproduce
``transferred_summary`` on summaries it was not solved from.  The table
expands M(q)^k s over six ratios, fitted to k = 0..5; M(q) is 10 x 10, so
the rows of M(q)^k s and of the expansion each satisfy the same linear
recurrence of order 10, and their agreement at k = 6..9 as well shows
that they agree at every k: no k ρ^k term is missing.  The printed forms
in ``printed_forms`` were solved by hand, so they are a witness
independent of the transfers."""

import dataclasses
import math
import random
from fractions import Fraction
from operator import mul

import pytest

import printed_forms
from trispectra import iterated
from trispectra.iterated import TRIANGLE_BASE, pseudofractal_metrics
from trispectra.metrics import INDICES, GraphSummary
from trispectra.transfer import transferred_summary

#: K2 and P3, the exact bases next to the triangle
K2 = GraphSummary(n=2, m=1, kemeny=Fraction(1, 2), kirchhoff=Fraction(1),
                  additive=Fraction(2), multiplicative=Fraction(1))
P3 = GraphSummary(n=3, m=2, kemeny=Fraction(3, 2), kirchhoff=Fraction(4),
                  additive=Fraction(10), multiplicative=Fraction(6))


def _state(summary):
    return iterated._state(summary.n, summary.m, *(getattr(summary, i) for i in INDICES))


def _random_summary(rng):
    n = rng.randint(2, 9)
    m = rng.randint(n - 1, n * (n - 1) // 2)
    return GraphSummary(n, m, *(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
                                for _ in INDICES))


@pytest.mark.parametrize("q", [*range(1, 31), 10**11])
def test_one_step_map_reproduces_the_transfers_and_six_terms_fit(q):
    rng = random.Random(q)
    columns, scale = iterated._one_step(q)
    step = [*zip(*columns)]
    for _ in range(2):
        summary = _random_summary(rng)
        state = _state(summary)
        den = math.lcm(*(Fraction(x).denominator for x in state))
        vector = [int(x * den) for x in state]  # M(q)^k s = N^k vector / (scale^k den)
        for k in range(1, 10):
            vector = [sum(map(mul, row, vector)) for row in step]
            got = [Fraction(x, scale**k * den) for x in vector]
            if k == 1:
                assert got == list(_state(transferred_summary(q, summary)))
            if k >= 6:
                for name, row in iterated._ROWS.items():
                    assert iterated._value(summary, q, k, name) == got[row], (name, k)


@pytest.fixture(scope="module")
def corpus_bases(small_corpus):
    """Two corpus graphs' oracle summaries, each index made a Fraction."""
    graphs = list({g.edges: g for g, _ in small_corpus}.values())[:2]
    return [dataclasses.replace(summary, **{i: Fraction(getattr(summary, i)) for i in INDICES})
            for summary in (GraphSummary.from_graph(g, with_matrices=False) for g in graphs)]


@pytest.mark.parametrize("q", [1, 2, 3, 7, 10**11])
def test_forms_equal_the_printed_forms(q, corpus_bases):
    """At k = 3000 the q = 10**11 values have some 10^5 digits, and each
    normalisation of them takes about 0.1 s, so that q stops at k = 40."""
    ks = [*range(41), 3000] if q < 10**11 else range(41)
    for base in (TRIANGLE_BASE, K2, P3, *corpus_bases):
        for name in ("kemeny", "additive", "kirchhoff"):
            form, printed = (getattr(m, f"iterated_{name}") for m in (iterated, printed_forms))
            for k in ks:
                assert form(base, q, k) == printed(base, q, k), (base, name, k)
    for k in ks:
        assert pseudofractal_metrics(q, k) == printed_forms.pseudofractal_metrics(q, k), k


def _weights(q, row):
    """{ratio: weight} of the row on the triangle: its value at k is
    the sum of weight * ratio^k."""
    den, d, terms = iterated._terms(TRIANGLE_BASE, q, row)
    return {Fraction(a, d): Fraction(w, den) for a, w in terms if w}


@pytest.mark.parametrize("q", range(1, 6))
def test_pseudofractal_growth_terms(q):
    """The Kirchhoff index grows as (2q+1)^2k, the square of the node
    count's growth, with the constant that demos/pseudofractal_growth.py
    shows as the limit; Kemeny's constant grows as the node count."""
    u = 2 * q + 1
    kirchhoff = _weights(q, "kirchhoff")
    assert max(kirchhoff) == u * u
    assert kirchhoff[u * u] == Fraction(9 * (2 * q + 3) ** 2, 8 * u * (2 * q + 5))
    kemeny = _weights(q, "kemeny")
    assert max(kemeny) == u and kemeny[u] > 0
