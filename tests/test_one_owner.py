"""Each decision has one owner: ``errors.is_integer`` is the package's
only integer test, so ``numbers.Integral`` is named only in errors.py;
and rank B = n - [G bipartite] is read from ``is_bipartite``'s flag, so
no module defines ``_incidence_rank`` or subscripts or unpacks what
``is_bipartite`` returns."""

import ast
from pathlib import Path

import trispectra


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_bipartite_call(node) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == "is_bipartite"


def _scan(source: str) -> list:
    """The findings in ``source`` in ``ast.walk`` order: "Integral" for
    each import of, name of or attribute lookup of Integral,
    "_incidence_rank" for each definition of it, and "is_bipartite[]" for
    each subscript or tuple unpacking of an is_bipartite call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.alias) and node.name == "Integral"
                or isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "Integral"):
            found.append("Integral")
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name == "_incidence_rank"
              or isinstance(node, ast.Name) and node.id == "_incidence_rank"
              and isinstance(node.ctx, ast.Store)):
            found.append("_incidence_rank")
        elif (isinstance(node, ast.Subscript) and _is_bipartite_call(node.value)
              or isinstance(node, ast.Assign) and _is_bipartite_call(node.value)
              and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)):
            found.append("is_bipartite[]")
    return found


def test_guard_sees_each_finding():
    assert _scan("from numbers import Integral\nisinstance(x, Integral)") == [
        "Integral", "Integral",
    ]
    assert _scan("import numbers\nisinstance(x, numbers.Integral)") == ["Integral"]
    assert _scan("from numbers import Integral as I") == ["Integral"]
    assert _scan("from numbers import Real\nisinstance(x, Real)") == []
    assert _scan("def _incidence_rank(g):\n    pass") == ["_incidence_rank"]
    assert _scan("_incidence_rank = lambda g: g.n") == ["_incidence_rank"]
    assert _scan("spectral._incidence_rank(g)") == []
    assert _scan("flag = is_bipartite(g)[0]") == ["is_bipartite[]"]
    assert _scan("rank = g.n - graph.is_bipartite(g)[1]") == ["is_bipartite[]"]
    assert _scan("flag, parts = is_bipartite(g)") == ["is_bipartite[]"]
    assert _scan("flag = is_bipartite(g)\nrank = g.n - flag\nrows = table[flag]") == []


def test_each_decision_has_one_owner():
    modules = sorted(Path(trispectra.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.stem}: {finding}" for path in modules
             for finding in _scan(path.read_text())]
    assert set(found) == {"errors: Integral"}
