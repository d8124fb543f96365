"""Closed-form maps from quantities of G to quantities of R_q(G).

Every function here is pure arithmetic on a :class:`GraphSummary`, the
record that ``compute_metrics`` returns for either route; the
triangulation graph is never constructed or decomposed.  Rational
coefficients are built with ``fractions.Fraction``, so a summary with
Fraction scalars gives exact rational outputs and one with floats 64-bit
ones.  ``_guarded``, the one guard of every closed form here and in
:mod:`trispectra.iterated`, checks q and k, rounds an exact value of a
float summary once to a float and owns the float range.
"""

from __future__ import annotations

import functools
import inspect
import math
from fractions import Fraction

from .errors import (FloatOverflowError, InvalidNodeRefError, SameNodeError, check_k, check_q,
                     is_index)
from .metrics import INDICES, GraphSummary
from .triangulation import new_node_generator


def _generators(q: int, summary: GraphSummary, matrix: str, a, b):
    """(s, t, is_new) for nodes a and b of R_q(G), numbered as
    q_triangulate numbers them: {s, t} is a new node's generator edge in
    G, and an old node x is the degenerate edge {x, x}, both 0-based.
    InvalidNodeRefError for any other node, or for a summary without G's
    matrix or graph."""
    if getattr(summary, matrix) is None or summary.graph is None:
        raise InvalidNodeRefError(f"summary carries no {matrix} matrix or no graph G")

    def generator(x):
        if is_index(x, summary.n):
            return x - 1, x - 1, 0
        e, _ = new_node_generator(summary.n, summary.m, q, x)
        return (*summary.graph._ends[e - 1].tolist(), 1)

    return generator(a), generator(b)


def _guarded(form):
    """Every closed form's one guard: InvalidQError, then InvalidKError,
    unless q (and k, where the form takes one) is valid, before the form
    runs; a Fraction value rounded once to a float if the summary has a float
    index; and FloatOverflowError naming the form, q and k for an
    OverflowError, the ValueError of Fraction(nan) or a float inf or NaN."""
    signature = inspect.signature(form)
    checked = [(at, name) for at, name in enumerate(signature.parameters) if name in ("q", "k")]

    @functools.wraps(form)
    def wrapper(*args, **named):
        if named or len(args) != len(signature.parameters):  # TypeError unless each is given once
            args = signature.bind(*args, **named).args
        args = [*args]
        for at, name in checked:
            args[at] = check_q(args[at]) if name == "q" else check_k(args[at])
        try:
            value = form(*args)
            if isinstance(value, Fraction) and any(
                    isinstance(getattr(s, i), float)
                    for s in args if isinstance(s, GraphSummary) for i in INDICES):
                value = float(value)
        except (OverflowError, ValueError) as exc:
            if isinstance(exc, ValueError) and str(exc) != "cannot convert NaN to integer ratio":
                raise  # the one ValueError turned is Fraction(nan)'s
            value = math.inf
        if isinstance(value, float) and not math.isfinite(value):
            at = ", ".join(f"{name}={args[at]}" for at, name in checked)
            raise FloatOverflowError(f"{form.__name__} at {at} exceeds the float range")
        return value

    return wrapper


# ---- two-node transfers ----------------------------------------------
# An old node is its degenerate edge and T_xx = r_xx = 0, so the paper's
# old/old, new/old, old/new and new/new cases are one formula each.  Summing
# (T_su + T_tu) + (T_sv + T_tv) rounds every case but new/new bit for bit as
# its case formula does.


@_guarded
def transfer_hitting(q: int, summary: GraphSummary, a, b):
    """Hitting time in R_q(G) from node a to node b.

    {s, t} is the generator edge of a and {u, v} that of b (s = t = a for
    an old node a), and T is G's hitting matrix:
      H(a -> b) = [a new] + [b new] (m(2q+1) - 1)
                  + (2q+1)/(2(q+2)) (T_su + T_tu + T_sv + T_tv - T_uv - T_vu)
    Case by case: old i -> old j is (4q+2)/(q+2) T_ij; new{s,t} -> old j is
    1 + (2q+1)/(q+2) (T_sj + T_tj); old j -> new{u,v} is m(2q+1) - 1 +
    (2q+1)/(2(q+2)) [2(T_ju + T_jv) - T_uv - T_vu]; new -> new is m(2q+1)
    plus the bracket in full.
    """
    (s, t, a_new), (u, v, b_new) = _generators(q, summary, "hitting", a, b)
    if a == b:
        raise SameNodeError(f"hitting time from node {a} to itself")
    T = summary.hitting
    return (
        a_new + b_new * (summary.m * (2 * q + 1) - 1)
        + Fraction(2 * q + 1, 2 * (q + 2))
        * ((T[s, u] + T[t, u]) + (T[s, v] + T[t, v]) - (T[u, v] + T[v, u]))
    )


@_guarded
def transfer_resistance(q: int, summary: GraphSummary, a, b):
    """Resistance distance in R_q(G) between nodes a and b (0 if equal).

    {s, t} is the generator edge of a and {u, v} that of b (s = t = a for
    an old node a), and r is G's resistance matrix; for a != b:
      r(a, b) = ([a new] + [b new]) / 2
                + (r_su + r_tu + r_sv + r_tv - r_uv - r_st) / (2(q+2))
    Case by case: old/old is 2/(q+2) r_ij; new{s,t}/old j is
    1/2 + (2 r_sj + 2 r_tj - r_st) / (2(q+2)); new/new is 1 plus the
    fraction in full.
    """
    (s, t, a_new), (u, v, b_new) = _generators(q, summary, "resistance", a, b)
    if a == b:
        return 0
    r = summary.resistance
    return Fraction(a_new + b_new, 2) + Fraction(1, 2 * (q + 2)) * (
        (r[s, u] + r[t, u]) + (r[s, v] + r[t, v]) - r[u, v] - r[s, t]
    )


# ---- scalar transfers -------------------------------------------------


@_guarded
def transfer_kemeny(q: int, summary: GraphSummary):
    """Kemeny's constant of R_q(G)."""
    n, m = summary.n, summary.m
    return (
        Fraction(4 * q + 2, q + 2) * summary.kemeny
        + Fraction(q * q + (4 * n - 1) * q + 2 * n, (q + 2) * (2 * q + 1))
        + m * q
        - n
    )


@_guarded
def transfer_multiplicative(q: int, summary: GraphSummary):
    """Multiplicative degree-Kirchhoff index of R_q(G)."""
    n, m = summary.n, summary.m
    return Fraction(2 * (2 * q + 1) ** 2, q + 2) * summary.multiplicative + 2 * m * (
        Fraction(q * q + (4 * n - 1) * q + 2 * n, q + 2)
        + (m * q - n) * (2 * q + 1)
    )


@_guarded
def transfer_additive(q: int, summary: GraphSummary):
    """Additive degree-Kirchhoff index of R_q(G)."""
    n, m = summary.n, summary.m
    return (
        Fraction(2 * (2 * q + 1), q + 2) * summary.additive
        + Fraction(2 * q * (2 * q + 1), q + 2) * summary.multiplicative
        + m * m * q * (3 * q + 1)
        - m * q * (2 * n - 1)
        + Fraction((5 * m - n) * (n - 1) * q, q + 2)
    )


@_guarded
def transfer_kirchhoff(q: int, summary: GraphSummary):
    """Kirchhoff index of R_q(G): the old pairs, whose resistances scale
    by 2/(q+2), plus the new/old and the new/new pair sums."""
    return (
        Fraction(2, q + 2) * summary.kirchhoff
        + new_old_resistance_sum.__wrapped__(q, summary)
        + new_pair_resistance_sum.__wrapped__(q, summary)
    )


@_guarded
def new_old_resistance_sum(q: int, summary: GraphSummary):
    """Sum of resistances over (new node, old node) pairs in R_q(G)."""
    n, m = summary.n, summary.m
    return (
        Fraction(q, q + 2) * summary.additive
        + Fraction(m * n * q, 2)
        - Fraction(n * (n - 1) * q, 2 * (q + 2))
    )


@_guarded
def new_pair_resistance_sum(q: int, summary: GraphSummary):
    """Sum of resistances over unordered pairs of new nodes in R_q(G)."""
    n, m = summary.n, summary.m
    return (
        Fraction(q * q, 2 * (q + 2)) * summary.multiplicative
        + Fraction(m * q * (m * q - 1), 2)
        - Fraction(m * (n - 1) * q * q, 2 * (q + 2))
    )


@_guarded
def transferred_summary(q: int, summary: GraphSummary) -> GraphSummary:
    """Scalar summary of R_q(G), for chaining single-step transfers."""
    return GraphSummary(
        n=summary.n + summary.m * q,
        m=summary.m * (2 * q + 1),
        kemeny=transfer_kemeny(q, summary),
        kirchhoff=transfer_kirchhoff(q, summary),
        additive=transfer_additive(q, summary),
        multiplicative=transfer_multiplicative(q, summary),
    )
