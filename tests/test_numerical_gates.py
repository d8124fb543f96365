"""Every numerical result is accepted by one policy: ``spectral._gate``
is the only code that raises ConvergenceFailure, and
``spectral._gated_inverse`` holds the package's only matrix inverse."""

import ast
from pathlib import Path

import trispectra


def _scan(source: str):
    """(functions that call ``inv``, functions that construct
    ConvergenceFailure) in ``source``, each entry the name of the
    innermost enclosing function, or ``<module>``."""
    inverses, failures = [], []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "inv":
                    inverses.append(function)
                elif name == "ConvergenceFailure":
                    failures.append(function)
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return inverses, failures


def test_guard_sees_inverses_and_failures():
    assert _scan("import numpy as np\nnp.linalg.inv(a)") == (["<module>"], [])
    assert _scan("from numpy.linalg import inv\ndef f(a):\n    return inv(a)") == (["f"], [])
    assert _scan("def f(a):\n    return np.linalg.pinv(a) + np.linalg.solve(a, a)") == ([], [])
    assert _scan(
        "def f():\n    def g():\n        raise errors.ConvergenceFailure('x')\n"
        "    raise ConvergenceFailure('y')"
    ) == ([], ["g", "f"])
    assert _scan("try:\n    f()\nexcept ConvergenceFailure:\n    raise") == ([], [])


def test_one_gate_and_one_inverse():
    modules = sorted(Path(trispectra.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    inverses, failures = [], []
    for path in modules:
        found = _scan(path.read_text())
        inverses += [f"{path.stem}.{function}" for function in found[0]]
        failures += [f"{path.stem}.{function}" for function in found[1]]
    assert inverses == ["spectral._gated_inverse"]
    assert failures == ["spectral._gate"]
