"""Closed forms for k-fold iterated q-triangulation graphs, plus the
pseudofractal scale-free web specialization (iterates of the triangle).

One step maps the state s = (1, n, m, n², nm, m², K, Kf, Kf⁺, Kf*) of G
linearly, s' = M(q) s, and M(q), solved from the scalar transfers of
:mod:`trispectra.transfer`, has six eigenvalues ρ and no Jordan block.  So
each row of M(q)^k s is Σ ρ^k (c·s): the c are q's term table, built on
first use and memoised.  A float summary is evaluated exactly, and the
transfers' guard, which wraps each form, rounds the value once.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import FloatOverflowError, GraphError, check_k, check_q
from .metrics import INDICES
from .transfer import (GraphSummary, _guarded, transfer_additive, transfer_kemeny,
                       transfer_kirchhoff, transfer_multiplicative)

#: the scalar transfers in INDICES order, bound at import: a memoised table
#: must not read one that a mutation check put in place of ``transfer``'s
_TRANSFERS = (transfer_kemeny, transfer_kirchhoff, transfer_additive, transfer_multiplicative)

#: (n, m, K, Kf, Kf⁺, Kf*) of the ten summaries that M(q) is solved from:
#: six count pairs on no common conic, then the first with each index 1
_POINTS = ((2, 1, 0, 0, 0, 0), (3, 2, 0, 0, 0, 0), (3, 3, 0, 0, 0, 0), (4, 3, 0, 0, 0, 0),
           (4, 4, 0, 0, 0, 0), (4, 5, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0), (2, 1, 0, 1, 0, 0),
           (2, 1, 0, 0, 1, 0), (2, 1, 0, 0, 0, 1))

#: the table's rows, by their place in s: Kf* is 2m Kemeny, so it has none
_ROWS = {"n": 1, "m": 2, "kemeny": 6, "kirchhoff": 7, "additive": 8}


def _state(n, m, *indices):
    return (1, n, m, n * n, n * m, m * m, *indices)


@functools.cache
def _points_inverse():
    """(Z, σ): Z/σ inverts the matrix of _POINTS' states.  Gauss-Jordan in
    integers leaves each row its diagonal entry times its row of the inverse."""
    size = len(_POINTS)
    rows = [[*_state(*p), *(int(i == j) for j in range(size))] for i, p in enumerate(_POINTS)]
    for c in range(size):
        pivot = next(r for r in range(c, size) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(size):
            if r != c and rows[r][c]:
                rows[r] = [rows[c][c] * x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    sigma = math.lcm(*(row[c] for c, row in enumerate(rows)))
    return tuple(tuple(x * (sigma // row[c]) for x in row[size:])
                 for c, row in enumerate(rows)), sigma


def _one_step(q: int):
    """(columns of N, D): integers with M(q) = N / D and q + 2 dividing D,
    from S M(q)^T = T, S and T the points' states before and after a step."""
    z, sigma = _points_inverse()
    steps = [_state(n + q * m, (2 * q + 1) * m,
                    *(f.__wrapped__(q, GraphSummary(n, m, *indices)) for f in _TRANSFERS))
             for n, m, *indices in _POINTS]
    tau = math.lcm(q + 2, *(x.denominator for step in steps for x in step))
    columns = [*zip(*([x.numerator * (tau // x.denominator) for x in step] for step in steps))]
    return [[sum(map(mul, z_row, col)) for col in columns] for z_row in z], sigma * tau


@functools.lru_cache(maxsize=16)
def _table(q: int) -> dict:
    """For each of _ROWS, (c, d, reads, terms): ``reads`` names the indices
    the row depends on, each term is (ρd, integer w) and the row of
    M(q)^k s is Σ (ρd)^k (w·s) / (c d^k), d the least common denominator
    of the ρ.  ρ's w / c is e_row^T Π (M(q) - ρ'I) / (ρ - ρ') over ρ' ≠ ρ."""
    columns, scale = _one_step(q)
    u, a = 2 * q + 1, Fraction(4 * q + 2, q + 2)
    ratios = (Fraction(1), Fraction(u), Fraction(u * u), a, a * u, Fraction(2, q + 2))
    gammas = [int(r * scale) for r in ratios]
    table = {}
    for name, row in _ROWS.items():
        terms = []  # (ρ, e, x): x / e is ρ's c, in lowest terms
        for i, (r, g) in enumerate(zip(ratios, gammas)):
            x, e = [int(c == row) for c in range(len(columns))], 1
            for h in gammas[:i] + gammas[i + 1:]:
                x = [sum(map(mul, x, col)) - h * v for col, v in zip(columns, x)]
                e *= g - h
            if any(x):
                common = math.gcd(e, *x)
                terms.append((r, e // common, [v // common for v in x]))
        den = math.lcm(*(e for _, e, _ in terms))
        d = math.lcm(*(r.denominator for r, *_ in terms))
        reads = tuple(i for j, i in enumerate(INDICES) if any(x[6 + j] for *_, x in terms))
        table[name] = den, d, reads, tuple(
            (int(r * d), tuple(v * (den // e) for v in x)) for r, e, x in terms)
    return table


def _terms(summary: GraphSummary, q: int, row: str):
    """(c, d, pairs), the ``row`` of M(q)^k s being Σ w A^k / (c d^k)."""
    den, d, reads, terms = _table(q)[row]
    fields = [Fraction(getattr(summary, i)) if i in reads else 0 for i in INDICES]
    scale = math.lcm(*(f.denominator for f in fields))
    state = [x.numerator * (scale // x.denominator) for x in _state(summary.n, summary.m, *fields)]
    return den * scale, d, [(a, sum(map(mul, weights, state))) for a, weights in terms]


def _value(summary: GraphSummary, q: int, k: int, row: str) -> Fraction:
    den, d, terms = _terms(summary, q, row)
    return Fraction(sum(w * a**k for a, w in terms if w), den * d**k)


@_guarded
def iterated_kemeny(summary: GraphSummary, q: int, k: int):
    """Kemeny's constant after k iterations."""
    return _value(summary, q, k, "kemeny")


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
    return _value(summary, q, k, "additive")


@_guarded
def iterated_kirchhoff(summary: GraphSummary, q: int, k: int):
    """Kirchhoff index after k iterations."""
    return _value(summary, q, k, "kirchhoff")


# ---- pseudofractal scale-free webs (iterated triangulation of K3) ----

#: the triangle's exact GraphSummary, the base of every pseudofractal web
TRIANGLE_BASE = GraphSummary(n=3, m=3, kemeny=Fraction(4, 3), kirchhoff=Fraction(2),
                             additive=Fraction(8), multiplicative=Fraction(8))

#: the order of the values pseudofractal_metrics returns
PSEUDOFRACTAL_ORDER = ("kemeny", "multiplicative", "additive", "kirchhoff")


@_guarded
def pseudofractal_metrics(q: int, k: int):
    """The indices of the k-th pseudofractal web built with parameter q,
    in PSEUDOFRACTAL_ORDER, as Fractions: the term table on the triangle,
    and Kf* = 2m Kemeny with m = 3(2q+1)^k."""
    kem, add, kir = (_value(TRIANGLE_BASE, q, k, i) for i in ("kemeny", "additive", "kirchhoff"))
    return kem, 6 * (2 * q + 1) ** k * kem, add, kir


def pseudofractal_rows(q: int, kmax: int):
    """An iterator of (k, n, m, *map(float, pseudofractal_metrics(q, k)))
    for k = 0..kmax; InvalidQError, then InvalidKError, when it is called.
    Each value is an int division of one product per term from the last
    row's, so bit for bit the Fraction's float.  At the first k whose float
    would overflow, FloatOverflowError names q and k in place of the row."""
    q, kmax = check_q(q), check_k(kmax)
    dens, steps, rows = zip(*(_terms(TRIANGLE_BASE, q, row)
                              for row in ("n", "m", "kemeny", "additive", "kirchhoff")))
    # every row's terms in one list, so that a step is one map
    nums, bases = [w for t in rows for _, w in t], [a for t in rows for a, _ in t]
    ends = [*accumulate(map(len, rows))]
    sn, sm, skem, sadd, skir = map(slice, [0, *ends], ends)

    def generate(nums, dens):
        for k in range(kmax + 1):
            dn, dm, dkem, dadd, dkir = dens
            n, m, kem = sum(nums[sn]) // dn, sum(nums[sm]) // dm, sum(nums[skem])
            try:
                row = (k, n, m, kem / dkem, 2 * m * kem / dkem,
                       sum(nums[sadd]) / dadd, sum(nums[skir]) / dkir)
            except OverflowError:
                raise FloatOverflowError(
                    f"pseudofractal_rows at q={q}, k={k} exceeds the float range") from None
            yield row
            nums, dens = [*map(mul, nums, bases)], [*map(mul, dens, steps)]

    return generate(nums, dens)
