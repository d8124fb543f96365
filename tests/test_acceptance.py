"""End-to-end acceptance checks.

Each test exercises one acceptance criterion and reports a single
pass/fail line in the terminal summary (see conftest)."""
import io
import re
from fractions import Fraction

import numpy as np
import pytest

import trispectra.transfer as transfer_mod
import trispectra.iterated as iterated_mod
from trispectra import (
    GraphSummary,
    compute_metrics,
    complete_graph,
    iterate_triangulation,
    iterated_additive,
    iterated_kemeny,
    iterated_kirchhoff,
    iterated_multiplicative,
    path_graph,
    pseudofractal_metrics,
    transfer_additive,
    transfer_hitting,
    transfer_kemeny,
    transfer_kirchhoff,
    transfer_multiplicative,
    transfer_resistance,
)
from trispectra.cli import main
from trispectra.verify import (
    suite_identities,
    suite_spectrum_lift,
    suite_telescoping,
    suite_transfer,
)

from conftest import record_criterion


def _report(name, dev, tol, extra=""):
    passed = dev <= tol
    detail = f"max deviation {dev:.3e} (tolerance {tol:.0e})"
    if extra:
        detail += f" {extra}"
    record_criterion(name, passed, detail)
    assert passed, f"{name}: {detail}"


def test_criterion_triangle_ground_truth():
    """Triangle metrics, both routes, against the exact values."""
    g = complete_graph(3)
    dev = 0.0
    for route in ("oracle", "spectral"):
        rep = compute_metrics(g, route=route)
        dev = max(dev, np.abs(rep.hitting - (2.0 * (1 - np.eye(3)))).max())
        dev = max(dev, np.abs(rep.resistance - (2.0 / 3) * (1 - np.eye(3))).max())
        dev = max(dev, abs(rep.kemeny - 4.0 / 3))
        dev = max(dev, abs(rep.kirchhoff - 2.0))
        dev = max(dev, abs(rep.additive - 8.0))
        dev = max(dev, abs(rep.multiplicative - 8.0))
    _report("criterion-1 triangle ground truth", dev, 1e-10)


def test_criterion_spectrum_lift(acceptance_corpus):
    result = suite_spectrum_lift(acceptance_corpus, 1e-8, 1e-9)
    _report(
        "criterion-2 spectrum lift",
        result.max_deviation,
        result.tolerance,
        f"[{result.cases} checks]",
    )


def test_criterion_transfer_equivalence(acceptance_corpus):
    result = suite_transfer(acceptance_corpus, 1e-8)
    _report(
        "criterion-3 transfer vs oracle",
        result.max_deviation,
        result.tolerance,
        f"[{result.cases} checks]",
    )


def test_criterion_identities(acceptance_corpus):
    result = suite_identities(acceptance_corpus, 1e-8)
    _report(
        "criterion-4 identity suite",
        result.max_deviation,
        result.tolerance,
        f"[{result.cases} checks]",
    )


def test_criterion_iterated_telescoping():
    result = suite_telescoping(qmax=3, kmax=6, tol=1e-10)
    _report(
        "criterion-5 iterated telescoping",
        result.max_deviation,
        result.tolerance,
        f"[{result.cases} checks]",
    )


def test_criterion_pseudofractal():
    exact = pseudofractal_metrics(1, 1)
    dev = 0.0 if exact == (Fraction(14, 3), Fraction(84), Fraction(61),
                           Fraction(65, 6)) else 1.0
    tri = complete_graph(3)
    for q in (1, 2):
        for k in (1, 2):
            web = iterate_triangulation(tri, q, k)[-1].result
            rep = compute_metrics(web, route="oracle")
            kem, mul, add, kir = pseudofractal_metrics(q, k)
            for got, want in (
                (rep.kemeny, kem),
                (rep.multiplicative, mul),
                (rep.additive, add),
                (rep.kirchhoff, kir),
            ):
                dev = max(dev, abs(got - float(want)) / max(1.0, float(want)))
    _report("criterion-6 pseudofractal family", dev, 1e-7)


def test_criterion_pseudofractal_k6_web():
    """The k = 6 web (q = 1, n = 1095) through the oracle route against
    its exact closed forms."""
    web = iterate_triangulation(complete_graph(3), 1, 6)[-1].result
    assert web.n == 1095
    rep = compute_metrics(web, route="oracle")
    dev = max(
        abs(got - float(want)) / float(want)
        for got, want in zip(
            (rep.kemeny, rep.multiplicative, rep.additive, rep.kirchhoff),
            pseudofractal_metrics(1, 6),
        )
    )
    _report("criterion-6 pseudofractal web k=6 (n=1095)", dev, 1e-10)


def test_criterion_closed_loop():
    """One q-triangulation of an edge is a triangle; the transfer
    formulas applied to the edge must reproduce every triangle value."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    edge = GraphSummary(
        n=2, m=1,
        kemeny=Fraction(1, 2), kirchhoff=Fraction(1),
        additive=Fraction(2), multiplicative=Fraction(1),
        hitting=flip, resistance=flip, graph=path_graph(2),
    )
    x = 3  # the new node of R_1(K2), on edge (1, 2)
    dev = 0.0
    for got, want in (
        (transfer_kemeny(1, edge), Fraction(4, 3)),
        (transfer_multiplicative(1, edge), Fraction(8)),
        (transfer_additive(1, edge), Fraction(8)),
        (transfer_kirchhoff(1, edge), Fraction(2)),
        (transfer_hitting(1, edge, 1, 2), Fraction(2)),
        (transfer_hitting(1, edge, x, 1), Fraction(2)),
        (transfer_hitting(1, edge, 1, x), Fraction(2)),
        (transfer_resistance(1, edge, 1, 2), Fraction(2, 3)),
        (transfer_resistance(1, edge, x, 1), Fraction(2, 3)),
    ):
        dev = max(dev, abs(float(got - want)))
    _report("criterion-7 closed loop on an edge", dev, 1e-10)


def _mutants():
    """1% perturbations of a single coefficient in each formula family."""
    orig_hit = transfer_hitting
    orig_res = transfer_resistance

    def hit_old_old(q, summ, a, b):
        v = orig_hit(q, summ, a, b)
        if a <= summ.n and b <= summ.n:
            v = v * Fraction(101, 100)
        return v

    def hit_new_old(q, summ, a, b):
        v = orig_hit(q, summ, a, b)
        if a > summ.n >= b:
            v = v + Fraction(1, 100) * (v - 1)
        return v

    def res_old_old(q, summ, a, b):
        v = orig_res(q, summ, a, b)
        if a <= summ.n and b <= summ.n:
            v = v * Fraction(101, 100)
        return v

    def kemeny_leading(q, summ):
        return transfer_kemeny(q, summ) + (
            Fraction(1, 100) * Fraction(4 * q + 2, q + 2) * summ.kemeny
        )

    def kirchhoff_scaled(summ, q, k):
        v = iterated_kirchhoff(summ, q, k)
        return v * Fraction(101, 100) if k > 0 else v

    # (patched name, its module, mutant, check kind that must be reported)
    return [
        ("transfer_hitting", transfer_mod, hit_old_old, "hit old/old"),
        ("transfer_hitting", transfer_mod, hit_new_old, "hit new/old"),
        ("transfer_resistance", transfer_mod, res_old_old, "res old/old"),
        ("transfer_kemeny", transfer_mod, kemeny_leading, "kemeny"),
        ("iterated_kirchhoff", iterated_mod, kirchhoff_scaled, "exact kirchhoff"),
    ]


def test_criterion_mutation_sanity(monkeypatch):
    """Perturbing any single formula coefficient by 1% must flip the
    verification command to a failing exit status, with a worst-case
    line that names the failing check kind and the case's edge list."""
    args = ["verify", "--seed", "5", "--trials", "4", "--nmax", "7", "--qmax", "2"]
    assert main(args, out=io.StringIO()) == 0
    caught = 0
    for name, module, mutant, kind in _mutants():
        with monkeypatch.context() as mp:
            mp.setattr(module, name, mutant)
            out = io.StringIO()
            code = main(args, out=out)
            named = re.search(
                rf"worst case: {re.escape(kind)} on n=\d+ m=\d+ q=\d+( k=\d+)? edges=\[\(",
                out.getvalue(),
            )
            if code == 1 and "[FAIL]" in out.getvalue() and named:
                caught += 1
    total = len(_mutants())
    record_criterion(
        "criterion-8 mutation sanity",
        caught == total,
        f"{caught}/{total} mutants rejected by the verify command",
    )
    assert caught == total
