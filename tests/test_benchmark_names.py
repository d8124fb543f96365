"""The benchmark traces package functions by name and calls the package
API; a change that would break ``benchmarks/run.py`` must fail here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, monkeypatch):
    """Import ``benchmarks/<name>.py`` by path, without touching it."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    missing = []
    for module, qualname in tracing.TRACED:
        obj = importlib.import_module(f"trispectra.{module}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert tracing.TRACED and missing == []
    traced = {f"{module}.{qualname}" for module, qualname in tracing.TRACED}
    assert set(tracing.DISTINCT_KEYS) <= traced


def test_workload_ops_pass_their_checks(monkeypatch, tmp_path):
    # the tiny workloads: every corpus-verify op and its run check, the
    # pseudofractal CLI ops, and the transfer CLI ops on the webs
    workloads = _load("workloads", monkeypatch)
    corpus = workloads.CorpusVerify(1, tmp_path, tiny=True)
    forms = workloads.ClosedForms(1, tmp_path, tiny=True)
    webs = workloads.WebCli(1, tmp_path, tiny=True)
    ops = corpus.ops()
    ops += [op for op in forms.ops() if op.label.startswith("cli pseudofractal")]
    ops += [op for op in webs.ops() if op.label.startswith("transfer")]
    assert len(ops) == 7 + 6 + 2
    errors = [error for op in ops for error in op.check(op.run())]
    assert errors + corpus.check_run() == []
