"""The demos and the README's library quick tour run as shipped."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, closing", [
    ("pseudofractal_growth.py", r"  k=16: 1\.338334199985\n  k=32: 1\.339284265648"),
    ("two_routes_one_answer.py", r"\nlargest deviation: \S+  \(routes agree\)"),
], ids=["pseudofractal_growth", "two_routes_one_answer"])
def test_demo_runs(demo, closing, capsys):
    # each demo asserts its own agreement; its last two lines are checked here
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(closing, "\n".join(lines[-2:]))


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(compile(tour[1], "README.md quick tour", "exec"), namespace)
    assert namespace["lifted"].eigenvalues.size == namespace["r"].n
    assert namespace["lifted"].graph == namespace["r"]
    assert namespace["kemeny"](namespace["lifted"]) == pytest.approx(namespace["rep"].kemeny, rel=1e-12)
    assert namespace["rep"].kemeny == pytest.approx(
        float(namespace["transfer_kemeny"](1, namespace["summary"])), rel=1e-12)
