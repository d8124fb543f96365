import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from trispectra import graph, metrics, spectral, verify
from trispectra.errors import TrispectraError
from trispectra.graph import is_bipartite


def _count(monkeypatch, calls, owner, name, seen=None):
    """Wrap ``owner.name`` in ``owner`` and in every trispectra namespace
    that binds it; ``seen``, if given, collects each call's first argument."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        if seen is not None:
            seen.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("trispectra") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("bipartite", [True, False], ids=["bipartite", "non-bipartite"])
def test_graph_suites_do_only_the_dense_work_they_read(monkeypatch, acceptance_corpus, bipartite):
    # one spectrum of G for each of the lift suite and the identity suite,
    # and none of R_q(G), whose spectrum both suites lift from G's (the lift
    # suite's eigvalsh is its only decomposition); R_q(G) is built without
    # build_graph; no SVD runs, and the only kernels are kernel_basis's two
    # QRs in each lift
    case = next(c for c in acceptance_corpus if is_bipartite(c[0]) == bipartite)
    calls, decomposed = Counter(), []
    names = ("eigendecompose", "build_graph", "_qr_kernel", "svd")
    for owner, name in zip((spectral, graph, spectral, np.linalg), names):
        _count(monkeypatch, calls, owner, name, decomposed if name == "eigendecompose" else None)
    assert all(r.passed for r in verify.run_single(*case))
    assert [calls[name] for name in names] == [2, 0, 4, 0]
    assert decomposed == [case[0]] * 2


@pytest.mark.parametrize("trials, nmax", [(2.5, 5), (True, 5), (5, 4.5)],
                         ids=["float-trials", "bool-trials", "float-nmax"])
def test_make_corpus_needs_integer_counts(trials, nmax):
    with pytest.raises(TrispectraError, match="corpus needs integers"):
        verify.make_corpus(7, trials, nmax, 2)


@pytest.mark.parametrize("fraction", ["x", float("nan"), 2, -0.1, 1.5, True, None, 0.5j],
                         ids=["str", "nan", "two", "negative", "above-one", "bool", "none",
                              "complex"])
def test_make_corpus_needs_a_fraction_in_unit_interval(fraction):
    with pytest.raises(TrispectraError, match=r"fraction must be a real number in \[0, 1\]"):
        verify.make_corpus(1, 5, 5, 2, bipartite_fraction=fraction)


def test_make_corpus_takes_a_real_fraction_in_unit_interval():
    assert sum(is_bipartite(g) for g, _ in verify.make_corpus(1, 5, 5, 2, 1)) == 5
    half = verify.make_corpus(1, 6, 5, 2, 0.5)
    assert verify.make_corpus(1, 6, 5, 2, Fraction(1, 2)) == half
    assert verify.make_corpus(1, 6, 5, 2, np.float64(0.5)) == half


def test_reproducer_names_q_and_k_when_the_case_has_them():
    g = graph.complete_graph(3)
    edges = "edges=[(1, 2), (1, 3), (2, 3)]"
    cases = ((g,), (g, 2), (g, 2, 4))
    assert [verify.Check("x", 1.0, 0.0, case).reproducer() for case in cases] == [
        f"x on n=3 m=3 {edges}", f"x on n=3 m=3 q=2 {edges}", f"x on n=3 m=3 q=2 k=4 {edges}",
    ]


def test_route_checks_are_the_largest_route_gaps():
    # metrics' route deviation: three Checks on G alone, each the largest
    # |spectral - oracle| against 0.0, so its deviation is that gap
    g = graph.cycle_graph(5)
    spec, oracle = (metrics.compute_metrics(g, route) for route in ("spectral", "oracle"))
    checks = verify.route_checks(g, spec, oracle)
    assert [(c.kind, c.want, c.case) for c in checks] == [
        (name, 0.0, (g,)) for name in ("hitting", "resistance", "kemeny")
    ]
    assert [c.deviation for c in checks] == [
        np.abs(spec.hitting - oracle.hitting).max(),
        np.abs(spec.resistance - oracle.resistance).max(),
        abs(spec.kemeny - oracle.kemeny),
    ]
