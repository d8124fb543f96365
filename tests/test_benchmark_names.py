"""The benchmark traces package functions by name; a rename that would
break ``benchmarks/run.py --trace 1`` must fail here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
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
