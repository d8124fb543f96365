"""Closed forms for k-fold iterated q-triangulation graphs, plus the
pseudofractal scale-free web specialization (iterates of the triangle).

Each form is multiplied through by p, a power of its growth ratios'
denominator, so every term is a big integer times a small-denominator
Fraction, and the division by p at the end is the one normalisation per
value.  A float summary is evaluated exactly (a float is a Fraction); the
transfers' guard, which wraps each form, rounds the value once to a float,
checks q and k and owns the float range.  At k = 0 every ratio power is 1,
so each correction term vanishes and the base value comes back unchanged.
The multiplicative index is 2m Kemeny on every connected graph, so it is
derived from Kemeny's closed form, not written again (at k = 0 it gives
the summary's 2m Kemeny).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FloatOverflowError, GraphError, check_k, check_q
from .transfer import GraphSummary, _guarded


def _powers(q: int, k: int, *ratios: Fraction):
    """t = (2q+1)^k, p = d^k with d the least common denominator of the
    ratios, and each ratio^k times p, all integers (the multiplicative
    ratio's is a t).  Each form passes the ratios it reads, so p is 1 when
    they are integers, as Kemeny's is at q = 1; with p = (q+2)^k the one
    gcd would be of two big ones."""
    d = math.lcm(*(r.denominator for r in ratios))
    return ((2 * q + 1) ** k, d**k, *(int(r * d) ** k for r in ratios))


@_guarded
def iterated_kemeny(summary: GraphSummary, q: int, k: int):
    """Kemeny's constant after k iterations."""
    n, m = summary.n, summary.m
    t, p, a = _powers(q, k, Fraction(4 * q + 2, q + 2))
    return (
        a * Fraction(summary.kemeny)
        + Fraction(m * (2 * q + 3), 2 * (2 * q + 1)) * (t * p - a)
        + (Fraction(q - 1, 3 * (2 * q + 1)) + Fraction(m - 2 * n, 6)) * (a - p)
    ) / p


@_guarded
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


@_guarded
def iterated_additive(summary: GraphSummary, q: int, k: int):
    """Additive degree-Kirchhoff index after k iterations."""
    n, m = summary.n, summary.m
    t, p, a = _powers(q, k, Fraction(4 * q + 2, q + 2))
    tp = t * p
    return (
        a * Fraction(summary.additive)
        + (a * t - a)
        * (
            Fraction(summary.multiplicative) / 2
            - Fraction(
                2 * (q + 2) * m * m + (2 * q + 1) * m * n - m * (q - 1),
                3 * (2 * q + 1),
            )
        )
        + (t * tp - a)
        * Fraction(m * m * (2 * q + 3) * (6 * q + 11), 4 * (2 * q + 1) * (2 * q + 5))
        + (a - tp)
        * (
            Fraction(m, 2 * (2 * q + 1))
            + Fraction((q + 2) * m * (m - 2 * n + 1), 3 * (2 * q + 1))
        )
        - (a - p) * Fraction((m - 2 * n) * (m - 2 * n + 2), 12)
    ) / p


@_guarded
def iterated_kirchhoff(summary: GraphSummary, q: int, k: int):
    """Kirchhoff index after k iterations."""
    n, m = summary.n, summary.m
    t, p, a, e = _powers(q, k, Fraction(4 * q + 2, q + 2), Fraction(2, q + 2))
    tp = t * p
    return (
        e * Fraction(summary.kirchhoff)
        + (a * t - e)
        * (
            Fraction(summary.multiplicative) / 16
            - Fraction(m * m * (q + 2), 12 * (2 * q + 1))
            - Fraction(m * n, 24)
            + Fraction(m * (q - 1), 24 * (2 * q + 1))
        )
        + (a - e)
        * (
            Fraction(summary.additive) / 4
            - Fraction(summary.multiplicative) / 8
            - Fraction(m * m * (q + 2) * (2 * q - 1), 6 * (2 * q + 1) * (2 * q + 5))
            + Fraction(m * (2 * n * (q - 1) - q + 4), 12 * (2 * q + 1))
            - Fraction(n * (n - 1), 12)
        )
        + (t * tp - e)
        * Fraction(m * m * (2 * q + 3) ** 2, 8 * (2 * q + 1) * (2 * q + 5))
        - (tp - e)
        * (
            Fraction(
                m * (4 * q * q + 12 * q + 11) * (m - 2 * n),
                12 * (2 * q + 1) * (2 * q + 5),
            )
            + Fraction(m * (4 * q * q + 18 * q + 23), 12 * (2 * q + 1) * (2 * q + 5))
        )
        + (e - p) * Fraction((m - 2 * n) * (m - 2 * n + 2), 24)
    ) / p


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


def _pseudofractal_numerators(q: int, k: int, t: int, p: int):
    """The common denominator L = 24(2q+1)^2(2q+5)(q+2)^k and the integer
    numerators of Kemeny, additive and Kirchhoff over it, from
    t = (2q+1)^k and p = (q+2)^k.  The ratio powers a, b, e of the
    iterated forms share the denominator p; their numerators are 2^k t,
    2^k t^2 and 2^k.  t^(k-1), which is 1/(2q+1) at k = 0, enters as
    t/(2q+1) over L's second factor 2q+1."""
    u, v, w, c, d = 2 * q + 1, 2 * q + 5, 2 * q + 3, q + 4, 4 * q + 5
    tt, pt = t * t, p * t
    ptt, a, b, e = pt * t, t << k, tt << k, 1 << k
    kem = u * v * (36 * w * pt - 24 * c * a + 4 * d * p)
    add = (54 * w * (6 * q + 11) * u * ptt - 72 * c * u * v * b + 72 * c * u * u * a
           + 12 * d * u * v * pt + 6 * u * u * v * p)
    kir = (27 * w * w * u * ptt - 9 * c * u * v * b + 18 * c * u * u * a
           + 12 * (q + 1) * d * u * pt + 15 * c * u * u * e - 3 * u * u * v * p)
    return 24 * u * u * v * p, kem, add, kir


@_guarded
def pseudofractal_metrics(q: int, k: int):
    """The indices of the k-th pseudofractal web built with parameter q,
    in PSEUDOFRACTAL_ORDER, as Fractions normalised by one gcd each: up to
    k of about 1000 that is cheaper than a Fraction chain's gcds against
    small integers, one per step."""
    t = (2 * q + 1) ** k
    den, kem, add, kir = _pseudofractal_numerators(q, k, t, (q + 2) ** k)
    kem = Fraction(kem, den)
    return kem, 6 * t * kem, Fraction(add, den), Fraction(kir, den)  # Kf* = 2m K, m = 3t


def pseudofractal_rows(q: int, kmax: int):
    """Yield (k, n, m, *map(float, pseudofractal_metrics(q, k))) for
    k = 0..kmax, with t, p, n and m each one product from the last row's
    and each value numerator / L by correctly rounded int division: the
    float of the Fraction bit for bit.  At the first k whose float would
    overflow, FloatOverflowError names q and k in place of that row."""
    kmax, q = check_k(kmax), check_q(q)
    t, p, n, m = 1, 1, 3, 3
    for k in range(kmax + 1):
        den, kem, add, kir = _pseudofractal_numerators(q, k, t, p)
        try:
            row = k, n, m, kem / den, 6 * t * kem / den, add / den, kir / den
        except OverflowError:
            raise FloatOverflowError(
                f"pseudofractal_rows at q={q}, k={k} exceeds the float range"
            ) from None
        yield row
        t, p, n, m = t * (2 * q + 1), p * (q + 2), n + q * m, m * (2 * q + 1)
