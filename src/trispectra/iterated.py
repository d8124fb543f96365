"""Closed forms for k-fold iterated q-triangulation graphs, plus the
pseudofractal scale-free web specialization (iterates of the triangle).

Same arithmetic convention as the single-step transfers: coefficients
are Fractions, so exact-rational base summaries give exact results and
float summaries give 64-bit floats.  At k = 0 every ratio power is 1,
so each correction term vanishes and the base value comes back unchanged.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import FloatOverflowError, check_k, check_q
from .transfer import GraphSummary


def _float_range(closed_form):
    """Validate q and k, and turn the bare OverflowError that a float
    summary meets, when an exact coefficient outgrows the float range,
    into FloatOverflowError naming the closed form, q and k.  Exact
    summaries never raise it."""

    @functools.wraps(closed_form)
    def wrapper(summary, q, k):
        q, k = check_q(q), check_k(k)
        try:
            return closed_form(summary, q, k)
        except OverflowError:
            raise FloatOverflowError(
                f"{closed_form.__name__} at q={q}, k={k} exceeds the float range"
            ) from None

    return wrapper


def _growth_powers(q: int, k: int):
    """The five geometric ratios of the recurrences, each raised to k."""
    a = Fraction(4 * q + 2, q + 2) ** k            # Kemeny ratio
    b = Fraction(2 * (2 * q + 1) ** 2, q + 2) ** k  # multiplicative ratio
    c = Fraction(2 * (2 * q + 1), q + 2) ** k       # additive ratio
    e = Fraction(2, q + 2) ** k                     # Kirchhoff ratio
    t = (2 * q + 1) ** k                            # edge growth
    return a, b, c, e, t


@_float_range
def iterated_kemeny(summary: GraphSummary, q: int, k: int):
    """Kemeny's constant after k iterations."""
    n, m = summary.n, summary.m
    a, _, _, _, t = _growth_powers(q, k)
    return (
        a * summary.kemeny
        + Fraction(m * (2 * q + 3), 2 * (2 * q + 1)) * (t - a)
        + (Fraction(q - 1, 3 * (2 * q + 1)) + Fraction(m - 2 * n, 6)) * (a - 1)
    )


@_float_range
def iterated_multiplicative(summary: GraphSummary, q: int, k: int):
    """Multiplicative degree-Kirchhoff index after k iterations."""
    n, m = summary.n, summary.m
    _, b, _, _, t = _growth_powers(q, k)
    t2 = (2 * q + 1) ** (2 * k)
    return (
        b * summary.multiplicative
        + Fraction(m * m * (2 * q + 3), 2 * q + 1) * (t2 - b)
        + (
            Fraction(2 * m * (q - 1), 3 * (2 * q + 1))
            + Fraction(m * (m - 2 * n), 3)
        )
        * (b - t)
    )


@_float_range
def iterated_additive(summary: GraphSummary, q: int, k: int):
    """Additive degree-Kirchhoff index after k iterations."""
    n, m = summary.n, summary.m
    _, b, c, _, t = _growth_powers(q, k)
    t2 = (2 * q + 1) ** (2 * k)
    return (
        c * summary.additive
        + (b - c)
        * (
            summary.multiplicative * Fraction(1, 2)
            - Fraction(
                2 * (q + 2) * m * m + (2 * q + 1) * m * n - m * (q - 1),
                3 * (2 * q + 1),
            )
        )
        + (t2 - c)
        * Fraction(m * m * (2 * q + 3) * (6 * q + 11), 4 * (2 * q + 1) * (2 * q + 5))
        + (c - t)
        * (
            Fraction(m, 2 * (2 * q + 1))
            + Fraction((q + 2) * m * (m - 2 * n + 1), 3 * (2 * q + 1))
        )
        - (c - 1) * Fraction((m - 2 * n) * (m - 2 * n + 2), 12)
    )


@_float_range
def iterated_kirchhoff(summary: GraphSummary, q: int, k: int):
    """Kirchhoff index after k iterations."""
    n, m = summary.n, summary.m
    _, b, c, e, t = _growth_powers(q, k)
    t2 = (2 * q + 1) ** (2 * k)
    return (
        e * summary.kirchhoff
        + (b - e)
        * (
            summary.multiplicative * Fraction(1, 16)
            - Fraction(m * m * (q + 2), 12 * (2 * q + 1))
            - Fraction(m * n, 24)
            + Fraction(m * (q - 1), 24 * (2 * q + 1))
        )
        + (c - e)
        * (
            summary.additive * Fraction(1, 4)
            - summary.multiplicative * Fraction(1, 8)
            - Fraction(m * m * (q + 2) * (2 * q - 1), 6 * (2 * q + 1) * (2 * q + 5))
            + Fraction(m * (2 * n * (q - 1) - q + 4), 12 * (2 * q + 1))
            - Fraction(n * (n - 1), 12)
        )
        + (t2 - e)
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

#: exact base quantities of the triangle: (Kemeny, multiplicative,
#: additive, Kirchhoff)
TRIANGLE_BASE = GraphSummary(
    n=3,
    m=3,
    kemeny=Fraction(4, 3),
    kirchhoff=Fraction(2),
    additive=Fraction(8),
    multiplicative=Fraction(8),
)


def pseudofractal_metrics(q: int, k: int):
    """(Kemeny, multiplicative, additive, Kirchhoff) of the k-th
    pseudofractal web built with parameter q, as exact Fractions."""
    q = check_q(q)
    k = check_k(k)
    a, b, c, e, _ = _growth_powers(q, k)
    tkm1 = Fraction(2 * q + 1) ** (k - 1)
    t2 = Fraction(2 * q + 1) ** (2 * k)
    kem = (
        Fraction(3 * (2 * q + 3), 2) * tkm1
        - Fraction(q + 4, 2 * q + 1) * a
        + Fraction(4 * q + 5, 6 * (2 * q + 1))
    )
    mul = (
        Fraction(9 * (2 * q + 3), 2 * q + 1) * t2
        - Fraction(6 * (q + 4), 2 * q + 1) * b
        + (4 * q + 5) * tkm1
    )
    add = (
        Fraction(9 * (2 * q + 3) * (6 * q + 11), 4 * (2 * q + 1) * (2 * q + 5)) * t2
        - Fraction(3 * (q + 4), 2 * q + 1) * b
        + Fraction(3 * (q + 4), 2 * q + 5) * c
        + Fraction(4 * q + 5, 2) * tkm1
        + Fraction(1, 4)
    )
    kir = (
        Fraction(9 * (2 * q + 3) ** 2, 8 * (2 * q + 1) * (2 * q + 5)) * t2
        - Fraction(3 * (q + 4), 8 * (2 * q + 1)) * b
        + Fraction(3 * (q + 4), 4 * (2 * q + 5)) * c
        + Fraction((q + 1) * (4 * q + 5), 2 * (2 * q + 5)) * tkm1
        + Fraction(5 * (q + 4), 8 * (2 * q + 5)) * e
        - Fraction(1, 8)
    )
    return kem, mul, add, kir
