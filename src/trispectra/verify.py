"""Cross-module verification suites.

Each suite pits a closed-form route against an independent oracle on a
seeded corpus of random connected graphs.  Every comparison is one
:class:`Check` record, and a :class:`SuiteResult` derives its count,
worst deviation and reproducer from its checks.  The CLI `verify`,
`transfer` and `metrics` subcommands and the mutation-sanity tests drive
these functions; they look the closed forms up through their modules at
call time, so a patched (deliberately broken) formula is picked up and
flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

from . import iterated, metrics, spectral, transfer
from .errors import MAX_DENSE_NODES, TrispectraError, check_k, check_q, check_size, is_integer
from .graph import Graph, complete_graph, is_bipartite, path_graph
from .triangulation import q_triangulate

DEFAULT_TOLERANCES = {
    "eig": 1e-8,        # lifted eigenvalue multiset vs direct decomposition
    "lift": 1e-9,       # lifted eigenvector residual, per node
    "transfer": 1e-8,   # transfer formulas vs oracles on constructed R_q(G)
    "identity": 1e-8,   # Foster / reciprocity / Lemma 8 / kernel sums
    "iter": 1e-10,      # iterated closed forms vs chained transfers (float)
}


@dataclass(frozen=True)
class Check:
    """One computed value against its reference.

    ``case`` is the (graph,), (graph, q) or (graph, q, k) the check ran
    on; it is formatted only when the check is reported as a suite's worst.
    """

    kind: str
    got: object
    want: object
    case: tuple

    @property
    def deviation(self) -> float:
        """|got - want| / max(1, |want|); exact Fraction pairs deviate by
        0 when equal and by inf otherwise, and NaN counts as inf."""
        if isinstance(self.got, Fraction) and isinstance(self.want, Fraction):
            return 0.0 if self.got == self.want else math.inf
        want = float(self.want)
        dev = abs(float(self.got) - want) / max(1.0, abs(want))
        return math.inf if math.isnan(dev) else dev

    def reproducer(self) -> str:
        g, *qk = self.case
        at = "".join(f" {name}={v}" for name, v in zip("qk", qk))
        return f"{self.kind} on n={g.n} m={g.m}{at} edges={list(g.edges)}"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    tolerance: float
    checks: list

    @property
    def _worst(self):
        return max(self.checks, key=lambda c: c.deviation, default=None)

    @property
    def max_deviation(self) -> float:
        worst = self._worst
        return worst.deviation if worst else 0.0

    @property
    def worst_case(self) -> str:
        worst = self._worst
        return worst.reproducer() if worst else ""

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


# ---- corpus -----------------------------------------------------------


def random_connected_graph(rng, nmax: int, bipartite: bool) -> Graph:
    """One random simple connected graph with n <= nmax nodes, of the
    requested parity of bipartiteness (by construction, then verified);
    a draw that is not connected is drawn again."""
    while True:
        if bipartite:
            n = int(rng.integers(2, nmax + 1))
            n1 = int(rng.integers(1, n))
            i, j = np.mgrid[:n1, n1:n].reshape(2, -1)  # the candidate pairs, in edge order
        else:
            n = int(rng.integers(3, nmax + 1))
            i, j = np.triu_indices(n, 1)
        p = float(rng.uniform(0.3, 0.9))
        keep = rng.random(len(i)) < p  # one draw per candidate, in order
        g = Graph(n, np.column_stack((i[keep], j[keep])))
        if (g._colours >= 0).all() and is_bipartite(g) == bipartite:
            return g


def make_corpus(seed: int, trials: int, nmax: int, qmax: int,
                bipartite_fraction: float = 0.4):
    """Deterministic list of (graph, q) trial cases; at least
    ``bipartite_fraction`` of the graphs are bipartite by construction.
    Raises TrispectraError unless seed, trials and nmax are integers (not bools)
    with seed >= 0, trials >= 1 and 3 <= nmax <= MAX_DENSE_NODES, qmax is a
    valid q and bipartite_fraction is a real number (not a bool) in [0, 1]."""
    qmax = check_q(qmax)
    if not all(is_integer(v) and v >= low for v, low in ((seed, 0), (trials, 1), (nmax, 3))):
        raise TrispectraError(f"corpus needs integers seed >= 0, trials >= 1 and nmax >= 3, "
                              f"got seed={seed!r}, trials={trials!r}, nmax={nmax!r}")
    check_size(nmax, MAX_DENSE_NODES, "make_corpus")
    frac = bipartite_fraction
    if not (isinstance(frac, Real) and not isinstance(frac, bool) and 0 <= frac <= 1):
        raise TrispectraError(f"bipartite_fraction must be a real number in [0, 1], got {frac!r}")
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(trials):
        bip = trial / trials < bipartite_fraction
        g = random_connected_graph(rng, nmax, bip)
        q = trial % qmax + 1
        check_size(g.n + g.m * q, MAX_DENSE_NODES, f"make_corpus trial {trial} at q={q}")
        cases.append((g, q))
    return cases


# ---- suites -----------------------------------------------------------


def suite_spectrum_lift(cases, tol_eig: float, tol_resid: float):
    """Lifted spectrum vs the eigenvalues of constructed R_q(G), from
    eigvalsh of its normalized adjacency P.

    The lifted eigenvectors' residual against the same P is its own
    check, scaled by tol_eig / (tol_resid * N) so that it is gated on the
    eigenvalue scale.
    """
    checks = []
    for g, q in cases:
        lifted = spectral.lift_spectrum(spectral.eigendecompose(g), q)
        r = lifted.graph
        p = r.normalized_adjacency()
        gap = np.abs(np.sort(lifted.eigenvalues) - np.linalg.eigvalsh(p)).max()
        u = lifted.eigenvectors
        resid = np.sqrt(np.square(p @ u - u * lifted.eigenvalues).sum(axis=0)).max()
        checks += [
            Check("eigenvalue multiset", gap, 0.0, (g, q)),
            Check("eigenvector residual", resid / (tol_resid * r.n) * tol_eig, 0.0, (g, q)),
        ]
    return SuiteResult("spectrum-lift", tol_eig, checks)


def suite_transfer(cases, tol: float):
    """Every transfer formula vs the oracle on each constructed R_q(G): all
    four directed hitting cases, all three resistance cases, the four scalar
    indices, and the two intermediary sums."""
    checks = []
    for g, q in cases:
        tri = q_triangulate(g, q)
        rep = metrics.compute_metrics(tri.result, "oracle")  # refuses an oversized R_q(G) first
        summ = metrics.compute_metrics(g, "oracle")
        res, n = rep.resistance, g.n
        routes = {"hit": (transfer.transfer_hitting, rep.hitting),
                  "res": (transfer.transfer_resistance, res)}
        # old nodes 1 and 2 (a valid graph has m >= 1), copy 1 of edge 1
        # and copy q of edge m: two new nodes unless m = q = 1
        x1, x2 = tri.new_node_index(1, 1), tri.new_node_index(g.m, q)
        pairs = [
            ("hit old/old", 1, 2), ("res old/old", 1, 2),
            ("hit new/old", x1, 2), ("hit old/new", 2, x1), ("res new/old", x1, 2),
            ("hit new/new", x1, x2), ("hit new/new reverse", x2, x1), ("res new/new", x1, x2),
        ]
        rows = []
        for kind, a, b in pairs:
            if a != b:
                formula, matrix = routes[kind[:3]]
                rows.append((kind, formula(q, summ, a, b), matrix[a - 1, b - 1]))
        nxt = transfer.transferred_summary(q, summ)
        rows += [(name, getattr(nxt, name), getattr(rep, name)) for name in metrics.INDICES]
        rows += [
            ("cross sum", transfer.new_old_resistance_sum(q, summ), res[n:, :n].sum()),
            ("new-pair sum", transfer.new_pair_resistance_sum(q, summ),
             np.triu(res[n:, n:], 1).sum()),
        ]
        checks += [Check(kind, got, want, (g, q)) for kind, got, want in rows]
    return SuiteResult("transfer-vs-oracle", tol, checks)


def foster_sum(g: Graph, resistance) -> float:
    """r summed over g's edges (n - 1 by Foster) as numpy floats, left to right in edge order."""
    metrics.GraphSummary._check_shape("resistance", resistance, g.n)
    return np.add.accumulate(resistance[tuple(g._ends.T)])[-1]


def route_checks(g: Graph, spec_rep, oracle_rep) -> list:
    """The largest |spectral - oracle| of hitting, resistance and Kemeny, each against 0.0."""
    return [Check(name, np.abs(getattr(spec_rep, name) - getattr(oracle_rep, name)).max(),
                  0.0, (g,)) for name in ("hitting", "resistance", "kemeny")]


def suite_identities(cases, tol: float):
    """Foster's theorem, 2m r = T_ij + T_ji, multiplicative index = 2m K and
    the kernel-sum identity, on G and on R_q(G), whose spectrum is the lift of
    G's.  The kernel-sum check is the worst residual over every generator
    edge, so it covers every new node of a further q-triangulation."""
    checks = []
    for g, q in cases:
        spec_g = spectral.eigendecompose(g)
        for tag, spec in (("G", spec_g), ("Rq", spectral.lift_spectrum(spec_g, q))):
            graph = spec.graph
            rep = metrics.compute_metrics(graph, "oracle")
            hit, res = rep.hitting, rep.resistance
            kem = metrics.kemeny(spec)
            pi = graph.stationary_distribution()
            rows = [
                ("foster", foster_sum(graph, res), graph.n - 1),
                ("reciprocity", np.abs(2 * graph.m * res - (hit + hit.T)).max(), 0.0),
                ("mult=2mK", 2 * graph.m * kem, rep.multiplicative),
                ("kemeny start-independence", np.abs(hit @ pi - kem).max(), 0.0),
                # kernel-sum identity at every generator edge, with this
                # graph as the base of a further q-triangulation
                ("kernel-sum", spectral.kernel_sum_residual(spec, q).max(), 0.0),
            ]
            checks += [Check(f"{kind} {tag}", got, want, (g, q)) for kind, got, want in rows]
    return SuiteResult("identity-suite", tol, checks)


def suite_telescoping(qmax: int = 3, kmax: int = 6,
                      tol: float = DEFAULT_TOLERANCES["iter"]):
    """Iterated closed forms vs k-fold chained single-step transfers,
    in exact rationals (must agree identically) and in floats, for q in
    1..qmax and k in 0..kmax."""
    qmax, kmax = check_q(qmax), check_k(kmax)
    bases = [
        (complete_graph(3), iterated.TRIANGLE_BASE),
        (path_graph(2), transfer.GraphSummary(
            n=2, m=1,
            kemeny=Fraction(1, 2), kirchhoff=Fraction(1),
            additive=Fraction(2), multiplicative=Fraction(1),
        )),
        (path_graph(3), transfer.GraphSummary(
            n=3, m=2,
            kemeny=Fraction(3, 2), kirchhoff=Fraction(4),
            additive=Fraction(10), multiplicative=Fraction(6),
        )),
    ]
    checks = []
    for g, base in bases:
        for q in range(1, qmax + 1):
            chain = base
            float_chain = transfer.GraphSummary(
                n=base.n, m=base.m,
                **{name: float(getattr(base, name)) for name in metrics.INDICES},
            )
            for k in range(kmax + 1):
                closed = [getattr(iterated, f"iterated_{name}")(base, q, k)
                          for name in metrics.INDICES]
                for label, chained in (("exact", chain), ("float", float_chain)):
                    checks += [
                        Check(f"{label} {name}", got, getattr(chained, name), (g, q, k))
                        for name, got in zip(metrics.INDICES, closed)
                    ]
                chain = transfer.transferred_summary(q, chain)
                float_chain = transfer.transferred_summary(q, float_chain)
    return SuiteResult("iterated-telescoping", tol, checks)


def _graph_suites(cases) -> list:
    tol = DEFAULT_TOLERANCES
    return [
        suite_spectrum_lift(cases, tol["eig"], tol["lift"]),
        suite_transfer(cases, tol["transfer"]),
        suite_identities(cases, tol["identity"]),
    ]


def run_all(seed: int = 7, trials: int = 30, nmax: int = 10, qmax: int = 3):
    """Run every suite at DEFAULT_TOLERANCES on one seeded corpus."""
    cases = make_corpus(seed, trials, nmax, qmax)
    return _graph_suites(cases) + [suite_telescoping(qmax=qmax)]


def run_single(g: Graph, q: int):
    """Run the graph-based suites on a single (graph, q) case, size-checked as a corpus case is."""
    q = check_q(q)
    check_size(g.n + g.m * q, MAX_DENSE_NODES, "lift_spectrum")
    return _graph_suites([(g, q)])
