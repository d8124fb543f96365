"""The verdict of ``verify``, like every other output of the package, is
a function of its arguments: no module under ``src/trispectra`` reads
the process environment."""

import ast
from pathlib import Path

import trispectra

_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source: str) -> list:
    """Line numbers of ``<x>.environ``/``<x>.getenv``-style attributes
    and of ``from os import environ``/``getenv`` in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in _ENVIRONMENT]
    return lines


def test_guard_sees_environment_reads():
    assert _environment_reads("import os\nx = os.environ.get('TOL')") == [2]
    assert _environment_reads("import os as o\no.getenv('TOL')") == [2]
    assert _environment_reads("from os import environ, path") == [1]
    assert _environment_reads("import os\nos.path.join('a', 'b')") == []


def test_no_module_reads_the_environment():
    modules = sorted(Path(trispectra.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    reads = [
        f"{path.name}:{line}"
        for path in modules
        for line in _environment_reads(path.read_text())
    ]
    assert reads == []
