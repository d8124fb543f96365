"""Per-layer spans for the benchmark, recorded from outside the package.

Each traced public function is replaced by a wrapper in every
``trispectra`` module namespace that bound it, because ``cli`` and the
package ``__init__`` import names like ``compute_metrics`` directly.
A span's self time is its duration minus the time covered by the spans
it caused.  Figures are kept per bucket (set-up, then one bucket per
pass) so that a run can report set-up plus one pass whatever its length.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from statistics import median

#: (module, qualified name) of every traced function; the layer of a
#: metric is its module.
TRACED = (
    ("graph", "build_graph"),
    ("graph", "parse_edge_list"),
    ("graph", "format_edge_list"),
    ("triangulation", "q_triangulate"),
    ("triangulation", "iterate_triangulation"),
    ("spectral", "eigendecompose"),
    ("spectral", "kernel_basis"),
    ("spectral", "lift_spectrum"),
    ("spectral", "kernel_sum_residual"),
    ("metrics", "hitting_oracle"),
    ("metrics", "resistance_oracle"),
    ("metrics", "hitting_spectral_matrix"),
    ("metrics", "resistance_spectral_matrix"),
    ("metrics", "kirchhoff_indices"),
    ("metrics", "compute_metrics"),
    ("transfer", "GraphSummary.from_graph"),
    ("transfer", "transfer_hitting"),
    ("transfer", "transfer_resistance"),
    ("transfer", "transfer_kemeny"),
    ("transfer", "transfer_kirchhoff"),
    ("transfer", "transfer_additive"),
    ("transfer", "transfer_multiplicative"),
    ("transfer", "new_old_resistance_sum"),
    ("transfer", "new_pair_resistance_sum"),
    ("transfer", "transferred_summary"),
    ("iterated", "iterated_kemeny"),
    ("iterated", "iterated_multiplicative"),
    ("iterated", "iterated_additive"),
    ("iterated", "iterated_kirchhoff"),
    ("iterated", "pseudofractal_metrics"),
    ("verify", "make_corpus"),
    ("verify", "suite_spectrum_lift"),
    ("verify", "suite_transfer"),
    ("verify", "suite_identities"),
    ("verify", "suite_telescoping"),
    ("cli", "main"),
)


def _graph_key(g, *_):
    return (g.n, g.edges)


def _graph_q_key(g, q, *_):
    return (g.n, g.edges, q)


#: functions whose repeated work is counted, with the key that makes
#: two calls the same input
DISTINCT_KEYS = {
    "spectral.kernel_basis": _graph_q_key,
    "spectral.eigendecompose": _graph_key,
    "metrics.hitting_oracle": _graph_key,
}


@dataclass
class _Bucket:
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)


class Tracer:
    """Wraps the traced functions while installed.  Spans are recorded
    only between ``record(True)`` and ``record(False)``, so the checks
    run in between stay untraced."""

    def __init__(self):
        self.setup = _Bucket()
        self.passes = []
        self._bucket = None
        self._stack = []
        self._undo = []

    # ---- installation ------------------------------------------------

    def install(self):
        for module, _ in TRACED:
            importlib.import_module(f"trispectra.{module}")
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "trispectra" or name.startswith("trispectra."))
        ]
        for module, qualname in TRACED:
            name = f"{module}.{qualname}"
            home = sys.modules[f"trispectra.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapped = classmethod(self._wrap(name, original.__func__))
                setattr(cls, attr, wrapped)
                self._undo.append((cls, attr, original))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, qualname, None) is original:
                    setattr(mod, qualname, wrapped)
                    self._undo.append((mod, qualname, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        key_of = DISTINCT_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bucket = self._bucket
            if bucket is None:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += span
                bucket.self_s[name] = bucket.self_s.get(name, 0.0) + span - children
                bucket.calls[name] = bucket.calls.get(name, 0) + 1
                if key_of is not None:
                    bucket.keys.setdefault(name, set()).add(key_of(*args))

        return traced

    # ---- buckets -----------------------------------------------------

    def new_pass(self):
        self.passes.append(_Bucket())

    def record(self, on: bool):
        """Record into the current pass (the set-up before the first) or stop."""
        self._bucket = (self.passes[-1] if self.passes else self.setup) if on else None

    def report(self) -> dict:
        """Set-up plus one pass: set-up counts once, pass self times are
        medians over passes, and calls and distinct inputs come from the
        first pass (every pass runs the same operations)."""
        out = {}
        setup = self.setup
        first = self.passes[0]
        for module, qualname in TRACED:
            name = f"{module}.{qualname}"
            pass_self = median(p.self_s.get(name, 0.0) for p in self.passes)
            out[f"{name}.self_s"] = setup.self_s.get(name, 0.0) + pass_self
            out[f"{name}.calls"] = setup.calls.get(name, 0) + first.calls.get(name, 0)
        for name in DISTINCT_KEYS:
            calls = first.calls.get(name, 0)
            # no calls means no repeated work
            distinct = len(first.keys.get(name, ())) if calls else 1
            out[f"{name}.distinct_ratio"] = distinct / max(calls, 1)
        return out
