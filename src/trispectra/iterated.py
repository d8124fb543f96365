"""Closed forms for k-fold iterated q-triangulation graphs, plus the
pseudofractal scale-free web specialization (iterates of the triangle).

Same arithmetic convention as the single-step transfers: coefficients
are Fractions, so exact-rational base summaries give exact results and
float summaries give 64-bit floats.  At k = 0 every ratio power is 1,
so each correction term vanishes and the base value comes back unchanged.
The multiplicative index is 2m times Kemeny's constant on every connected
graph, so it is derived from Kemeny's closed form, not written again (at
k = 0 it gives the summary's 2m Kemeny).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import FloatOverflowError, GraphError, check_k, check_q
from .metrics import GraphSummary


def _float_range(closed_form):
    """Validate q and k, and turn a float summary's way out of the float
    range into FloatOverflowError naming the closed form, q and k: the
    bare OverflowError of an exact coefficient too large for a float, or
    a float result that is inf or NaN.  Exact summaries never raise it."""

    @functools.wraps(closed_form)
    def wrapper(summary, q, k):
        q, k = check_q(q), check_k(k)
        try:
            value = closed_form(summary, q, k)
            finite = not isinstance(value, float) or math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise FloatOverflowError(
                f"{closed_form.__name__} at q={q}, k={k} exceeds the float range"
            )
        return value

    return wrapper


def _growth_powers(q: int, k: int):
    """The geometric ratios of the recurrences, each raised to k.  The
    Kemeny and additive ratios are one ratio, (4q+2)/(q+2).  The
    multiplicative ratio is that times the edge growth 2q+1, but is
    raised on its own, since a * t would reduce by a big-integer gcd."""
    a = Fraction(4 * q + 2, q + 2) ** k            # Kemeny and additive ratio
    b = Fraction(2 * (2 * q + 1) ** 2, q + 2) ** k  # multiplicative ratio
    e = Fraction(2, q + 2) ** k                     # Kirchhoff ratio
    t = (2 * q + 1) ** k                            # edge growth
    return a, b, e, t


@_float_range
def iterated_kemeny(summary: GraphSummary, q: int, k: int):
    """Kemeny's constant after k iterations."""
    n, m = summary.n, summary.m
    a, _, _, t = _growth_powers(q, k)
    return (
        a * summary.kemeny
        + Fraction(m * (2 * q + 3), 2 * (2 * q + 1)) * (t - a)
        + (Fraction(q - 1, 3 * (2 * q + 1)) + Fraction(m - 2 * n, 6)) * (a - 1)
    )


@_float_range
def iterated_multiplicative(summary: GraphSummary, q: int, k: int):
    """Multiplicative degree-Kirchhoff index after k iterations:
    Kf* = 2m Kemeny on every connected graph, and the iterate has
    m (2q+1)^k edges.  GraphError naming ``multiplicative`` unless the
    base summary satisfies the identity: exactly for exact fields, to
    1e-9 relative when either field is a float."""
    got, want = summary.multiplicative, 2 * summary.m * summary.kemeny
    if isinstance(got, float) or isinstance(want, float):
        holds = math.isclose(got, want, rel_tol=1e-9)
    else:
        holds = got == want
    if not holds:
        raise GraphError(f"multiplicative {got} breaks Kf* = 2m Kemeny = {want}")
    return 2 * summary.m * (2 * q + 1) ** k * iterated_kemeny.__wrapped__(summary, q, k)


@_float_range
def iterated_additive(summary: GraphSummary, q: int, k: int):
    """Additive degree-Kirchhoff index after k iterations."""
    n, m = summary.n, summary.m
    a, b, _, t = _growth_powers(q, k)
    return (
        a * summary.additive
        + (b - a)
        * (
            summary.multiplicative * Fraction(1, 2)
            - Fraction(
                2 * (q + 2) * m * m + (2 * q + 1) * m * n - m * (q - 1),
                3 * (2 * q + 1),
            )
        )
        + (t * t - a)
        * Fraction(m * m * (2 * q + 3) * (6 * q + 11), 4 * (2 * q + 1) * (2 * q + 5))
        + (a - t)
        * (
            Fraction(m, 2 * (2 * q + 1))
            + Fraction((q + 2) * m * (m - 2 * n + 1), 3 * (2 * q + 1))
        )
        - (a - 1) * Fraction((m - 2 * n) * (m - 2 * n + 2), 12)
    )


@_float_range
def iterated_kirchhoff(summary: GraphSummary, q: int, k: int):
    """Kirchhoff index after k iterations."""
    n, m = summary.n, summary.m
    a, b, e, t = _growth_powers(q, k)
    return (
        e * summary.kirchhoff
        + (b - e)
        * (
            summary.multiplicative * Fraction(1, 16)
            - Fraction(m * m * (q + 2), 12 * (2 * q + 1))
            - Fraction(m * n, 24)
            + Fraction(m * (q - 1), 24 * (2 * q + 1))
        )
        + (a - e)
        * (
            summary.additive * Fraction(1, 4)
            - summary.multiplicative * Fraction(1, 8)
            - Fraction(m * m * (q + 2) * (2 * q - 1), 6 * (2 * q + 1) * (2 * q + 5))
            + Fraction(m * (2 * n * (q - 1) - q + 4), 12 * (2 * q + 1))
            - Fraction(n * (n - 1), 12)
        )
        + (t * t - e)
        * Fraction(m * m * (2 * q + 3) ** 2, 8 * (2 * q + 1) * (2 * q + 5))
        - (t - e)
        * (
            Fraction(
                m * (4 * q * q + 12 * q + 11) * (m - 2 * n),
                12 * (2 * q + 1) * (2 * q + 5),
            )
            + Fraction(m * (4 * q * q + 18 * q + 23), 12 * (2 * q + 1) * (2 * q + 5))
        )
        + (e - 1) * Fraction((m - 2 * n) * (m - 2 * n + 2), 24)
    )


# ---- pseudofractal scale-free webs (iterated triangulation of K3) ----

#: the triangle's exact GraphSummary, the base of every pseudofractal web
TRIANGLE_BASE = GraphSummary(
    n=3,
    m=3,
    kemeny=Fraction(4, 3),
    kirchhoff=Fraction(2),
    additive=Fraction(8),
    multiplicative=Fraction(8),
)

#: the order of the values pseudofractal_metrics returns
PSEUDOFRACTAL_ORDER = ("kemeny", "multiplicative", "additive", "kirchhoff")


def pseudofractal_metrics(q: int, k: int):
    """The indices of the k-th pseudofractal web built with parameter q,
    in PSEUDOFRACTAL_ORDER, as exact Fractions.

    Kemeny, additive and Kirchhoff are each one integer numerator over
    L = 24(2q+1)^2(2q+5)(q+2)^k, so each is normalised by one gcd, not by
    one per step of a Fraction chain.  That is cheaper up to k of about
    1000; far beyond, one gcd of two big integers costs more than the
    chain's gcds against small ones.  The ratio powers a, b, e of the
    iterated forms share the denominator (q+2)^k; their numerators are
    2^k t, 2^k t^2 and 2^k with t = (2q+1)^k.  t^(k-1), which is 1/(2q+1)
    at k = 0, enters as t/(2q+1) over L's second factor 2q+1."""
    q, k = check_q(q), check_k(k)
    u, v, w, c, d = 2 * q + 1, 2 * q + 5, 2 * q + 3, q + 4, 4 * q + 5
    t, p = u**k, (q + 2) ** k
    tt, pt = t * t, p * t
    ptt, a, b, e = pt * t, t << k, tt << k, 1 << k
    den = 24 * u * u * v * p
    kem = Fraction(u * v * (36 * w * pt - 24 * c * a + 4 * d * p), den)
    add = Fraction(54 * w * (6 * q + 11) * u * ptt - 72 * c * u * v * b + 72 * c * u * u * a
                   + 12 * d * u * v * pt + 6 * u * u * v * p, den)
    kir = Fraction(27 * w * w * u * ptt - 9 * c * u * v * b + 18 * c * u * u * a
                   + 12 * (q + 1) * d * u * pt + 15 * c * u * u * e - 3 * u * u * v * p, den)
    return kem, 6 * t * kem, add, kir  # Kf* = 2m K with m = 3t
