"""The paper's printed closed forms for R_{q,k}(G), kept as a witness.

These are the bodies that ``trispectra.iterated`` held before its forms
came from the k-th power of the one-step transfer: Kemeny's constant, the
additive and the Kirchhoff index after k iterations, each multiplied
through by a power p of its growth ratios' denominator, and the
pseudofractal web's numerators over one common denominator.  They were
solved from the one-step recurrences by hand, not derived from
``trispectra.transfer``, so the tests require the package's forms to equal
them under ``==``.  They take exact summaries and do no argument checks.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _powers(q: int, k: int, *ratios: Fraction):
    """t = (2q+1)^k, p = d^k with d the least common denominator of the
    ratios, and each ratio^k times p, all integers (the multiplicative
    ratio's is a t).  Each form passes the ratios it reads, so p is 1 when
    they are integers, as Kemeny's is at q = 1; with p = (q+2)^k the one
    gcd would be of two big ones."""
    d = math.lcm(*(r.denominator for r in ratios))
    return ((2 * q + 1) ** k, d**k, *(int(r * d) ** k for r in ratios))


def iterated_kemeny(summary: GraphSummary, q: int, k: int):
    """Kemeny's constant after k iterations."""
    n, m = summary.n, summary.m
    t, p, a = _powers(q, k, Fraction(4 * q + 2, q + 2))
    return (
        a * Fraction(summary.kemeny)
        + Fraction(m * (2 * q + 3), 2 * (2 * q + 1)) * (t * p - a)
        + (Fraction(q - 1, 3 * (2 * q + 1)) + Fraction(m - 2 * n, 6)) * (a - p)
    ) / p


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


def pseudofractal_metrics(q: int, k: int):
    """The indices of the k-th pseudofractal web built with parameter q,
    in PSEUDOFRACTAL_ORDER, as Fractions normalised by one gcd each: up to
    k of about 1000 that is cheaper than a Fraction chain's gcds against
    small integers, one per step."""
    t = (2 * q + 1) ** k
    den, kem, add, kir = _pseudofractal_numerators(q, k, t, (q + 2) ** k)
    kem = Fraction(kem, den)
    return kem, 6 * t * kem, Fraction(add, den), Fraction(kir, den)  # Kf* = 2m K, m = 3t
