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


@dataclass(frozen=True)
class GraphSummary:
    """The inputs the transfer formulas consume.

    Scalars may be floats or Fractions.  ``hitting`` and ``resistance``
    (full matrices of G, 0-based numpy arrays) are only needed for the
    two-node transfers; ``edge_set`` (frozenset of (min,max) pairs), when
    present, lets NodeRef validation catch generator pairs that are not
    edges of G.
    """

    n: int
    m: int
    kemeny: object
    kirchhoff: object
    additive: object
    multiplicative: object
    hitting: object = None
    resistance: object = None
    edge_set: object = None

    @classmethod
    def from_graph(cls, g, with_matrices: bool = True) -> "GraphSummary":
        """Summarize a graph via the oracle route."""
        report = compute_metrics(g, route="oracle")
        return cls(
            n=g.n,
            m=g.m,
            kemeny=report.kemeny,
            kirchhoff=report.kirchhoff,
            additive=report.additive,
            multiplicative=report.multiplicative,
            hitting=report.hitting if with_matrices else None,
            resistance=report.resistance if with_matrices else None,
            edge_set=frozenset(g.edges),
        )


@dataclass(frozen=True)
class OldNode:
    """A node of R_q(G) inherited from G."""

    i: int


@dataclass(frozen=True)
class NewNode:
    """A new node of R_q(G), identified by its generator edge {s, t} and
    copy index.  All transfer values depend only on {s, t}, never on the
    copy; the copy only distinguishes nodes on the same edge."""

    s: int
    t: int
    copy: int = 1

    @property
    def ends(self):
        return (min(self.s, self.t), max(self.s, self.t))


def _validate_ref(q: int, summary: GraphSummary, ref) -> None:
    if isinstance(ref, OldNode):
        if not is_index(ref.i, summary.n):
            raise InvalidNodeRefError(f"old node {ref.i!r} outside 1..{summary.n}")
    elif isinstance(ref, NewNode):
        ends_ok = is_index(ref.s, summary.n) and is_index(ref.t, summary.n)
        if not ends_ok or ref.s == ref.t:
            raise InvalidNodeRefError(
                f"generator pair ({ref.s!r},{ref.t!r}) is not two distinct nodes of G"
            )
        if not is_index(ref.copy, q):
            raise InvalidNodeRefError(f"copy {ref.copy!r} outside 1..{q}")
        if summary.edge_set is not None and ref.ends not in summary.edge_set:
            raise InvalidNodeRefError(
                f"generator pair {ref.ends} is not an edge of G"
            )
    else:
        raise InvalidNodeRefError(f"not a NodeRef: {ref!r}")


def _same_ref(a, b) -> bool:
    if isinstance(a, OldNode) and isinstance(b, OldNode):
        return a.i == b.i
    if isinstance(a, NewNode) and isinstance(b, NewNode):
        return a.ends == b.ends and a.copy == b.copy
    return False


# ---- two-node transfers ----------------------------------------------


def transfer_hitting(q: int, summary: GraphSummary, a, b):
    """Hitting time in R_q(G) from node a to node b.

    Four directed cases; T below is G's hitting matrix.
      old i -> old j:   (4q+2)/(q+2) T_ij
      new{s,t} -> old j: 1 + (2q+1)/(q+2) (T_sj + T_tj)
      old j -> new{s,t}: m(2q+1) - 1
                         + (2q+1)/(2(q+2)) [2(T_js + T_jt) - (T_ts + T_st)]
      new{s,t} -> new{u,v}: m(2q+1)
                         + (2q+1)/(2(q+2)) [T_su + T_tu + T_sv + T_tv
                                            - (T_uv + T_vu)]
    """
    q = check_q(q)
    _validate_ref(q, summary, a)
    _validate_ref(q, summary, b)
    if _same_ref(a, b):
        raise SameNodeError(f"hitting time from {a} to itself")
    if summary.hitting is None:
        raise InvalidNodeRefError("summary carries no hitting matrix of G")
    t = summary.hitting
    m = summary.m

    def T(i, j):
        return t[i - 1, j - 1]

    if isinstance(a, OldNode) and isinstance(b, OldNode):
        return Fraction(4 * q + 2, q + 2) * T(a.i, b.i)
    if isinstance(a, NewNode) and isinstance(b, OldNode):
        s, tt = a.ends
        return 1 + Fraction(2 * q + 1, q + 2) * (T(s, b.i) + T(tt, b.i))
    if isinstance(a, OldNode) and isinstance(b, NewNode):
        s, tt = b.ends
        j = a.i
        return (
            m * (2 * q + 1) - 1
            + Fraction(2 * q + 1, 2 * (q + 2))
            * (2 * (T(j, s) + T(j, tt)) - (T(tt, s) + T(s, tt)))
        )
    s, tt = a.ends
    u, v = b.ends
    return (
        m * (2 * q + 1)
        + Fraction(2 * q + 1, 2 * (q + 2))
        * (T(s, u) + T(tt, u) + T(s, v) + T(tt, v) - (T(u, v) + T(v, u)))
    )


def transfer_resistance(q: int, summary: GraphSummary, a, b):
    """Resistance distance in R_q(G) between nodes a and b (0 if equal).

    Three cases; r below is G's resistance matrix.
      old/old:          2/(q+2) r_ij
      new{s,t}/old j:   1/2 + (2 r_sj + 2 r_tj - r_st) / (2(q+2))
      new{s,t}/new{u,v}: 1 + (r_su + r_tu + r_sv + r_tv - r_uv - r_st)
                             / (2(q+2))
    """
    q = check_q(q)
    _validate_ref(q, summary, a)
    _validate_ref(q, summary, b)
    if _same_ref(a, b):
        return 0
    if summary.resistance is None:
        raise InvalidNodeRefError("summary carries no resistance matrix of G")
    rm = summary.resistance

    def R(i, j):
        return rm[i - 1, j - 1]

    if isinstance(a, OldNode) and isinstance(b, OldNode):
        return Fraction(2, q + 2) * R(a.i, b.i)
    if isinstance(a, NewNode) != isinstance(b, NewNode):
        new, old = (a, b) if isinstance(a, NewNode) else (b, a)
        s, t = new.ends
        j = old.i
        return Fraction(1, 2) + Fraction(1, 2 * (q + 2)) * (
            2 * R(s, j) + 2 * R(t, j) - R(s, t)
        )
    s, t = a.ends
    u, v = b.ends
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
