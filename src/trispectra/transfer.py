"""Closed-form maps from quantities of G to quantities of R_q(G).

Every function here is pure arithmetic on a :class:`GraphSummary`; the
triangulation graph is never constructed or decomposed.  Rational
coefficients are built with ``fractions.Fraction``, so feeding a summary
whose scalars are Fractions yields exact rational outputs, while float
summaries flow through in ordinary 64-bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidNodeRefError, SameNodeError, check_q, is_index
from .metrics import compute_metrics
from .triangulation import new_node_generator


@dataclass(frozen=True, eq=False)
class GraphSummary:
    """The inputs the transfer formulas consume.

    Scalars may be floats or Fractions.  ``hitting`` and ``resistance``
    (full matrices of G, 0-based numpy arrays) and ``edges`` (G's m edges
    in canonical order, edge e at position e - 1) are only needed for the
    two-node transfers.
    """

    n: int
    m: int
    kemeny: object
    kirchhoff: object
    additive: object
    multiplicative: object
    hitting: object = None
    resistance: object = None
    edges: object = None

    @classmethod
    def from_graph(cls, g, with_matrices: bool = True) -> "GraphSummary":
        """Summarize a graph via the oracle route."""
        report = compute_metrics(g, route="oracle")
        return cls(
            n=g.n, m=g.m,
            kemeny=report.kemeny,
            kirchhoff=report.kirchhoff,
            additive=report.additive,
            multiplicative=report.multiplicative,
            hitting=report.hitting if with_matrices else None,
            resistance=report.resistance if with_matrices else None,
            edges=g.edges,
        )


def _generators(q: int, summary: GraphSummary, matrix: str, a, b):
    """Generator edges (s, t) in G of nodes a and b of R_q(G), numbered as
    q_triangulate numbers them (None for an old node); InvalidNodeRefError
    for any other node, or for a summary without G's matrix or edges."""
    if getattr(summary, matrix) is None or summary.edges is None:
        raise InvalidNodeRefError(f"summary carries no {matrix} matrix or no edges of G")

    def generator(x):
        if is_index(x, summary.n):
            return None
        e, _ = new_node_generator(summary.n, summary.m, q, x)
        return summary.edges[e - 1]

    return generator(a), generator(b)


# ---- two-node transfers ----------------------------------------------


def transfer_hitting(q: int, summary: GraphSummary, a, b):
    """Hitting time in R_q(G) from node a to node b.

    Four directed cases; T below is G's hitting matrix and {s, t}, {u, v}
    are the generator edges of new nodes.
      old i -> old j:   (4q+2)/(q+2) T_ij
      new{s,t} -> old j: 1 + (2q+1)/(q+2) (T_sj + T_tj)
      old j -> new{s,t}: m(2q+1) - 1
                         + (2q+1)/(2(q+2)) [2(T_js + T_jt) - (T_ts + T_st)]
      new{s,t} -> new{u,v}: m(2q+1)
                         + (2q+1)/(2(q+2)) [T_su + T_tu + T_sv + T_tv
                                            - (T_uv + T_vu)]
    """
    q = check_q(q)
    ga, gb = _generators(q, summary, "hitting", a, b)
    if a == b:
        raise SameNodeError(f"hitting time from node {a} to itself")
    t, m = summary.hitting, summary.m

    def T(i, j):
        return t[i - 1, j - 1]

    if ga is None and gb is None:
        return Fraction(4 * q + 2, q + 2) * T(a, b)
    if gb is None:
        s, tt = ga
        return 1 + Fraction(2 * q + 1, q + 2) * (T(s, b) + T(tt, b))
    if ga is None:
        s, tt = gb
        return (
            m * (2 * q + 1) - 1
            + Fraction(2 * q + 1, 2 * (q + 2))
            * (2 * (T(a, s) + T(a, tt)) - (T(tt, s) + T(s, tt)))
        )
    s, tt = ga
    u, v = gb
    return (
        m * (2 * q + 1)
        + Fraction(2 * q + 1, 2 * (q + 2))
        * (T(s, u) + T(tt, u) + T(s, v) + T(tt, v) - (T(u, v) + T(v, u)))
    )


def transfer_resistance(q: int, summary: GraphSummary, a, b):
    """Resistance distance in R_q(G) between nodes a and b (0 if equal).

    Three cases; r below is G's resistance matrix and {s, t}, {u, v} are
    the generator edges of new nodes.
      old/old:          2/(q+2) r_ij
      new{s,t}/old j:   1/2 + (2 r_sj + 2 r_tj - r_st) / (2(q+2))
      new{s,t}/new{u,v}: 1 + (r_su + r_tu + r_sv + r_tv - r_uv - r_st)
                             / (2(q+2))
    """
    q = check_q(q)
    ga, gb = _generators(q, summary, "resistance", a, b)
    if a == b:
        return 0
    rm = summary.resistance

    def R(i, j):
        return rm[i - 1, j - 1]

    if ga is None and gb is None:
        return Fraction(2, q + 2) * R(a, b)
    if ga is None or gb is None:
        (s, t), j = (ga, b) if gb is None else (gb, a)
        return Fraction(1, 2) + Fraction(1, 2 * (q + 2)) * (
            2 * R(s, j) + 2 * R(t, j) - R(s, t)
        )
    s, t = ga
    u, v = gb
    return 1 + Fraction(1, 2 * (q + 2)) * (
        R(s, u) + R(t, u) + R(s, v) + R(t, v) - R(u, v) - R(s, t)
    )


# ---- scalar transfers -------------------------------------------------


def transfer_kemeny(q: int, summary: GraphSummary):
    """Kemeny's constant of R_q(G)."""
    q = check_q(q)
    n, m = summary.n, summary.m
    return (
        Fraction(4 * q + 2, q + 2) * summary.kemeny
        + Fraction(q * q + (4 * n - 1) * q + 2 * n, (q + 2) * (2 * q + 1))
        + m * q
        - n
    )


def transfer_multiplicative(q: int, summary: GraphSummary):
    """Multiplicative degree-Kirchhoff index of R_q(G)."""
    q = check_q(q)
    n, m = summary.n, summary.m
    return Fraction(2 * (2 * q + 1) ** 2, q + 2) * summary.multiplicative + 2 * m * (
        Fraction(q * q + (4 * n - 1) * q + 2 * n, q + 2)
        + (m * q - n) * (2 * q + 1)
    )


def transfer_additive(q: int, summary: GraphSummary):
    """Additive degree-Kirchhoff index of R_q(G)."""
    q = check_q(q)
    n, m = summary.n, summary.m
    return (
        Fraction(2 * (2 * q + 1), q + 2) * summary.additive
        + Fraction(2 * q * (2 * q + 1), q + 2) * summary.multiplicative
        + m * m * q * (3 * q + 1)
        - m * q * (2 * n - 1)
        + Fraction((5 * m - n) * (n - 1) * q, q + 2)
    )


def transfer_kirchhoff(q: int, summary: GraphSummary):
    """Kirchhoff index of R_q(G)."""
    q = check_q(q)
    n, m = summary.n, summary.m
    return (
        Fraction(2, q + 2) * summary.kirchhoff
        + Fraction(q, q + 2) * summary.additive
        + Fraction(q * q, 2 * (q + 2)) * summary.multiplicative
        + Fraction(m * m * q * q, 2)
        + Fraction((2 * m - n) * (n - 1) * q, 2 * (q + 2))
    )


def new_old_resistance_sum(q: int, summary: GraphSummary):
    """Sum of resistances over (new node, old node) pairs in R_q(G)."""
    q = check_q(q)
    n, m = summary.n, summary.m
    return (
        Fraction(q, q + 2) * summary.additive
        + Fraction(m * n * q, 2)
        - Fraction(n * (n - 1) * q, 2 * (q + 2))
    )


def new_pair_resistance_sum(q: int, summary: GraphSummary):
    """Sum of resistances over unordered pairs of new nodes in R_q(G)."""
    q = check_q(q)
    n, m = summary.n, summary.m
    return (
        Fraction(q * q, 2 * (q + 2)) * summary.multiplicative
        + Fraction(m * q * (m * q - 1), 2)
        - Fraction(m * (n - 1) * q * q, 2 * (q + 2))
    )


def transferred_summary(q: int, summary: GraphSummary) -> GraphSummary:
    """Scalar summary of R_q(G), for chaining single-step transfers."""
    q = check_q(q)
    return GraphSummary(
        n=summary.n + summary.m * q,
        m=summary.m * (2 * q + 1),
        kemeny=transfer_kemeny(q, summary),
        kirchhoff=transfer_kirchhoff(q, summary),
        additive=transfer_additive(q, summary),
        multiplicative=transfer_multiplicative(q, summary),
    )
