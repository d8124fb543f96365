import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import trispectra

from trispectra.errors import InvalidKError, InvalidQError, check_k
from trispectra.graph import complete_graph
from trispectra.iterated import (
    TRIANGLE_BASE,
    iterated_additive,
    iterated_kemeny,
    iterated_kirchhoff,
    iterated_multiplicative,
    pseudofractal_metrics,
    pseudofractal_rows,
)
from trispectra.metrics import INDICES, hitting_oracle, kirchhoff_indices, resistance_oracle
from trispectra.transfer import GraphSummary, transferred_summary
from trispectra.triangulation import iterate_triangulation, predicted_counts
from trispectra.verify import suite_telescoping


def test_k0_returns_base():
    assert iterated_kemeny(TRIANGLE_BASE, 2, 0) == Fraction(4, 3)
    assert iterated_multiplicative(TRIANGLE_BASE, 3, 0) == 8
    assert iterated_additive(TRIANGLE_BASE, 1, 0) == 8
    assert iterated_kirchhoff(TRIANGLE_BASE, 1, 0) == 2


def test_k0_returns_float_base():
    # at k = 0 every correction term has a factor that is exactly 0
    names = ("kemeny", "multiplicative", "additive", "kirchhoff")
    base = GraphSummary(
        n=3, m=3, **{name: float(getattr(TRIANGLE_BASE, name)) for name in names}
    )
    for name in names:
        for q in (1, 2, 3):
            got = getattr(trispectra.iterated, f"iterated_{name}")(base, q, 0)
            assert type(got) is float and got == getattr(base, name)


def test_single_step_matches_transfer():
    assert iterated_kemeny(TRIANGLE_BASE, 1, 1) == Fraction(14, 3)
    assert iterated_multiplicative(TRIANGLE_BASE, 1, 1) == 84
    assert iterated_additive(TRIANGLE_BASE, 1, 1) == 61
    assert iterated_kirchhoff(TRIANGLE_BASE, 1, 1) == Fraction(65, 6)


#: the exact bases of verify.suite_telescoping: the triangle, P2 and P3
EXACT_BASES = (
    TRIANGLE_BASE,
    GraphSummary(n=2, m=1, kemeny=Fraction(1, 2), kirchhoff=Fraction(1),
                 additive=Fraction(2), multiplicative=Fraction(1)),
    GraphSummary(n=3, m=2, kemeny=Fraction(3, 2), kirchhoff=Fraction(4),
                 additive=Fraction(10), multiplicative=Fraction(6)),
)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_telescoping_exact(q):
    # q = 1 and q = 4 reduce the growth ratios to integers, q >= 4 is
    # outside the suites' range: a coefficient slip may show only there
    for base in EXACT_BASES:
        chain = base
        for k in range(9):
            assert iterated_kemeny(base, q, k) == chain.kemeny
            assert iterated_multiplicative(base, q, k) == chain.multiplicative
            assert iterated_additive(base, q, k) == chain.additive
            assert iterated_kirchhoff(base, q, k) == chain.kirchhoff
            chain = transferred_summary(q, chain)


def test_telescoping_float():
    base = GraphSummary(
        n=3, m=3, kemeny=4 / 3, kirchhoff=2.0, additive=8.0, multiplicative=8.0
    )
    for q in (2, 3):
        chain = base
        for k in range(7):
            assert float(iterated_additive(base, q, k)) == pytest.approx(
                float(chain.additive), rel=1e-10
            )
            assert float(iterated_kirchhoff(base, q, k)) == pytest.approx(
                float(chain.kirchhoff), rel=1e-10
            )
            chain = transferred_summary(q, chain)


def test_pseudofractal_base_and_step():
    assert pseudofractal_metrics(1, 0) == (Fraction(4, 3), 8, 8, 2)
    assert pseudofractal_metrics(1, 1) == (Fraction(14, 3), 84, 61, Fraction(65, 6))


def _iterated_triangle(q, k):
    forms = (iterated_kemeny, iterated_multiplicative, iterated_additive, iterated_kirchhoff)
    return tuple(f(TRIANGLE_BASE, q, k) for f in forms)


@pytest.mark.parametrize("q,k", [(1, 3), (2, 2), (3, 2), (2, 5)])
def test_pseudofractal_equals_iterated_triangle(q, k):
    assert pseudofractal_metrics(q, k) == _iterated_triangle(q, k)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_pseudofractal_grid_equals_iterated_and_chain(q):
    """Three derivations agree exactly for k = 0..30: the pseudofractal
    closed form, the iterated forms on the triangle, and a chain of
    one-step transfers from the triangle."""
    chain = TRIANGLE_BASE
    for k in range(31):
        got = pseudofractal_metrics(q, k)
        assert got == _iterated_triangle(q, k), k
        assert got == (chain.kemeny, chain.multiplicative, chain.additive, chain.kirchhoff), k
        chain = transferred_summary(q, chain)


@pytest.mark.parametrize("k", [321, 322, 646, 2000])
def test_pseudofractal_equals_iterated_triangle_large_k(k):
    # around the CLI's float ceiling (k = 322 at q = 1) and far past it
    assert pseudofractal_metrics(1, k) == _iterated_triangle(1, k)


def test_oracle_agreement_on_constructed_iterates():
    # closed forms vs full numerical pipeline on R_{q,k}(K3)
    g = complete_graph(3)
    for q, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        r = iterate_triangulation(g, q, k)[-1].result
        res = resistance_oracle(r)
        kir, add, mul = kirchhoff_indices(r, res)
        pi = r.stationary_distribution()
        kem = float(hitting_oracle(r)[0, :] @ pi)
        got = pseudofractal_metrics(q, k)
        assert kem == pytest.approx(float(got[0]), rel=1e-7)
        assert mul == pytest.approx(float(got[1]), rel=1e-7)
        assert add == pytest.approx(float(got[2]), rel=1e-7)
        assert kir == pytest.approx(float(got[3]), rel=1e-7)


def test_leading_order_growth():
    # Kirchhoff index grows like (2q+1)^{2k} with the predicted constant
    for q in (1, 2, 3):
        k = 30
        ratio = pseudofractal_metrics(q, k)[3] / (2 * q + 1) ** (2 * k)
        limit = Fraction(9 * (2 * q + 3) ** 2, 8 * (2 * q + 1) * (2 * q + 5))
        assert abs(float(ratio / limit) - 1.0) < 1e-5


def test_bad_arguments():
    with pytest.raises(InvalidQError):
        iterated_kemeny(TRIANGLE_BASE, 0, 1)
    with pytest.raises(InvalidKError):
        pseudofractal_metrics(1, -1)


@pytest.mark.parametrize("qmax, kmax, error", [
    (0, 6, InvalidQError), (1.5, 6, InvalidQError), (3, -1, InvalidKError),
])
def test_telescoping_suite_rejects_bad_ranges(qmax, kmax, error):
    # an empty range used to pass with zero checks
    with pytest.raises(error):
        suite_telescoping(qmax=qmax, kmax=kmax)


@pytest.mark.parametrize("fn, k", [
    (iterated_kirchhoff, 400),
    (iterated_additive, 400),
    (iterated_multiplicative, 400),
    (iterated_kemeny, 1000),
])
def test_float_overflow_is_typed(fn, k):
    """A float summary whose closed form outgrows the float range raises
    FloatOverflowError naming the function, q and k, whether an exact
    coefficient is too large for a float or the float result is inf; the
    exact summary at the same point still gives a Fraction, and a float
    one at small k still gives a float."""
    base = GraphSummary(
        n=3, m=3, kemeny=4 / 3, kirchhoff=2.0, additive=8.0, multiplicative=8.0
    )
    huge = GraphSummary(
        n=3, m=3, kemeny=1e300, kirchhoff=1e300, additive=1e300, multiplicative=6e300
    )
    for summary, at in ((base, k), (huge, 30)):
        with pytest.raises(trispectra.FloatOverflowError) as info:
            fn(summary, 1, at)
        assert isinstance(info.value, trispectra.TrispectraError)
        assert str(info.value) == f"{fn.__name__} at q=1, k={at} exceeds the float range"
        assert info.value.__cause__ is None
    assert type(fn(TRIANGLE_BASE, 1, k)) is Fraction
    assert float(fn(base, 1, 5)) == pytest.approx(float(fn(TRIANGLE_BASE, 1, 5)), rel=1e-12)


def test_multiplicative_needs_2m_kemeny():
    # Kf* = 2m K holds on every connected graph; a base summary that
    # breaks it is refused, exactly for Fractions and to 1e-9 for floats
    broken = GraphSummary(
        n=3, m=3, kemeny=Fraction(4, 3), kirchhoff=Fraction(2),
        additive=Fraction(8), multiplicative=Fraction(100),
    )
    off = GraphSummary(
        n=3, m=3, kemeny=4 / 3, kirchhoff=2.0, additive=8.0, multiplicative=8.0 * (1 + 1e-8)
    )
    near = GraphSummary(
        n=3, m=3, kemeny=4 / 3, kirchhoff=2.0, additive=8.0, multiplicative=8.0 * (1 + 1e-10)
    )
    for summary in (broken, off):
        for k in (0, 1):
            with pytest.raises(trispectra.GraphError, match="^multiplicative "):
                iterated_multiplicative(summary, 1, k)
    assert iterated_multiplicative(near, 1, 1) == pytest.approx(
        float(iterated_multiplicative(TRIANGLE_BASE, 1, 1)), rel=1e-12
    )


def test_check_k():
    assert trispectra.InvalidKError is InvalidKError
    assert check_k(0) == 0
    assert type(check_k(np.int64(3))) is int
    for bad in (-1, True, 1.5, 2.0, "2", None):
        with pytest.raises(InvalidKError):
            check_k(bad)


def test_numpy_integer_and_bad_k():
    for fn in (iterated_kemeny, iterated_multiplicative, iterated_additive,
               iterated_kirchhoff):
        assert fn(TRIANGLE_BASE, 1, np.int64(2)) == fn(TRIANGLE_BASE, 1, 2)
        for bad in (True, 1.5, -1):
            with pytest.raises(InvalidKError):
                fn(TRIANGLE_BASE, 1, bad)
    assert pseudofractal_metrics(1, np.int64(2)) == pseudofractal_metrics(1, 2)
    with pytest.raises(InvalidKError):
        pseudofractal_metrics(1, False)


def test_numpy_integer_q():
    # q becomes a Python int, so the exact powers cannot overflow int64
    assert pseudofractal_metrics(np.int64(1), 400) == pseudofractal_metrics(1, 400)
    for bad in (True, 1.5):
        with pytest.raises(InvalidQError):
            pseudofractal_metrics(bad, 2)


def test_large_k_exact_rationals_survive():
    # (2q+1)^{2k} exceeds double integer precision near k = 17 for q = 3;
    # the rational path must stay exact there
    val = iterated_multiplicative(TRIANGLE_BASE, 3, 20)
    chain = TRIANGLE_BASE
    for _ in range(20):
        chain = transferred_summary(3, chain)
    assert val == chain.multiplicative


_FORMS = (iterated_kemeny, iterated_multiplicative, iterated_additive, iterated_kirchhoff)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", _FORMS)
def test_non_finite_field_is_typed(fn, x):
    """A NaN or infinite field that a form reads gives FloatOverflowError
    naming the form, never the ValueError of Fraction(nan); a NaN Kemeny
    breaks Kf* = 2m Kemeny, so iterated_multiplicative refuses it first."""
    summary = GraphSummary(n=3, m=3, kemeny=x, kirchhoff=x, additive=x, multiplicative=6 * x)
    if fn is iterated_multiplicative and math.isnan(x):
        with pytest.raises(trispectra.GraphError, match="^multiplicative nan breaks"):
            fn(summary, 1, 2)
        return
    with pytest.raises(trispectra.FloatOverflowError) as info:
        fn(summary, 1, 2)
    assert str(info.value) == f"{fn.__name__} at q=1, k=2 exceeds the float range"


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 5, 40])
def test_float_results_are_correctly_rounded(q, k):
    """A float summary gives its exact value rounded once: the float of the
    form on the same numbers as Fractions, for numpy float64 fields too.
    The multiplicative form reads Kemeny's constant alone, so its exact
    twin has Kf* = 2m Kemeny exactly, which 8 and 4/3 as floats miss."""
    floats = {name: float(getattr(TRIANGLE_BASE, name)) for name in INDICES}
    exact = GraphSummary(n=3, m=3, **{name: Fraction(x) for name, x in floats.items()})
    twins = dict.fromkeys(_FORMS, exact)
    twins[iterated_multiplicative] = dataclasses.replace(exact, multiplicative=6 * exact.kemeny)
    for cast in (float, np.float64):
        summary = GraphSummary(n=3, m=3, **{name: cast(x) for name, x in floats.items()})
        for fn, twin in twins.items():
            got = fn(summary, q, k)
            assert type(got) is float and got == float(fn(twin, q, k)), fn.__name__


def test_float_result_moved_to_the_nearest_float():
    # the Fraction chain with float coefficients read 11826964.406249998
    base = GraphSummary(n=3, m=3, kemeny=4 / 3, kirchhoff=2.0, additive=8.0, multiplicative=8.0)
    assert iterated_kirchhoff(base, 2, 5) == 11826964.40625


@pytest.mark.parametrize("q", [1, 2, 3, 7, 10**11])
def test_pseudofractal_rows_equal_the_exact_form(q):
    """The row generator yields the counts and the floats of the exact form
    for every k up to the last finite row, and raises FloatOverflowError
    naming q and k at the first k whose exact values do not fit in a float
    (322 at q = 1)."""
    rows = pseudofractal_rows(q, 10**4)
    for k in itertools.count():
        try:
            want = (k, *predicted_counts(3, 3, q, k), *map(float, pseudofractal_metrics(q, k)))
        except OverflowError:
            break
        assert next(rows) == want
    with pytest.raises(trispectra.FloatOverflowError) as info:
        next(rows)
    assert str(info.value) == f"pseudofractal_rows at q={q}, k={k} exceeds the float range"
    assert info.value.__cause__ is None and info.value.__suppress_context__
    assert k == 322 or q != 1


def test_pseudofractal_rows_stop_at_kmax_and_check_arguments():
    assert [row[0] for row in pseudofractal_rows(2, 4)] == [0, 1, 2, 3, 4]
    assert list(pseudofractal_rows(np.int64(1), np.int64(0))) == [(0, 3, 3, 4 / 3, 8.0, 8.0, 2.0)]
    # checked when called, q before k, as every guarded form checks them:
    # the generator used to check k and then q at its first next()
    with pytest.raises(InvalidQError):
        pseudofractal_rows(0, -1)
    with pytest.raises(InvalidQError):
        pseudofractal_rows(0, 5)
    with pytest.raises(InvalidKError):
        pseudofractal_rows(1, -1)


_GUARDED = (*_FORMS, pseudofractal_metrics)


@pytest.mark.parametrize("fn", _GUARDED, ids=lambda fn: fn.__name__)
def test_keyword_and_numpy_integer_arguments(fn):
    """Every guarded form takes q and k (and the summary) by position or by
    name, as Python or numpy integers, and checks them either way."""
    base = () if fn is pseudofractal_metrics else (TRIANGLE_BASE,)
    named = {} if fn is pseudofractal_metrics else {"summary": TRIANGLE_BASE}
    want = fn(*base, 2, 3)
    assert fn(*base, q=2, k=3) == want
    assert fn(**named, k=3, q=2) == want
    assert fn(*base, np.int64(2), k=np.int32(3)) == want
    with pytest.raises(InvalidQError):
        fn(*base, q=0, k=3)
    with pytest.raises(InvalidKError):
        fn(**named, q=np.int64(2), k=-1)
    for bad, extra in (((), {}), ((2,), {}), ((2, 3, 4), {}), ((2, 3), {"q": 2}),
                       ((2, 3), {"j": 1})):
        with pytest.raises(TypeError):
            fn(*base, *bad, **extra)


def test_keyword_overflow_names_the_form_q_and_k():
    base = GraphSummary(n=3, m=3, kemeny=4 / 3, kirchhoff=2.0, additive=8.0, multiplicative=8.0)
    with pytest.raises(trispectra.FloatOverflowError) as info:
        iterated_kemeny(k=np.int64(1000), q=1, summary=base)
    assert str(info.value) == "iterated_kemeny at q=1, k=1000 exceeds the float range"
    assert info.value.__cause__ is None and info.value.__context__ is None
