import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from trispectra.cli import main
from trispectra.graph import cycle_graph
from trispectra.metrics import compute_metrics


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_triangulate_k2():
    code, text = run_cli(["triangulate", "--graph", "k2", "--q", "1"])
    assert code == 0
    assert "3 3" in text
    assert "3 1 1" in text  # node 3 from edge 1, copy 1


def test_triangulate_k3_header():
    code, text = run_cli(["triangulate", "--graph", "k3", "--q", "1"])
    assert code == 0
    assert "6 nodes, 9 edges" in text


def test_triangulate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n1 2\nbroken\n")
    code, _ = run_cli(["triangulate", "--input", str(bad), "--q", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: parse error line 3: expected 'i j'\n"


def test_triangulate_missing_file():
    code, _ = run_cli(["triangulate", "--input", "/nonexistent.edges", "--q", "1"])
    assert code == 2


def test_triangulate_disconnected(tmp_path):
    bad = tmp_path / "disc.edges"
    bad.write_text("4 2\n1 2\n3 4\n")
    code, _ = run_cli(["metrics", "--input", str(bad)])
    assert code == 2


def test_metrics_out_of_range_endpoint(tmp_path, capsys):
    bad = tmp_path / "range.edges"
    bad.write_text("3 1\n1 5\n")
    code, _ = run_cli(["metrics", "--input", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: GraphError: edge (1,5)")


def test_metrics_k3_table():
    code, text = run_cli(["metrics", "--graph", "k3"])
    assert code == 0
    assert "kemeny 1.33333333333" in text
    assert "kirchhoff 2" in text


def test_metrics_k2():
    code, text = run_cli(["metrics", "--graph", "k2"])
    assert code == 0
    assert "kemeny 0.5" in text


def test_metrics_path3_foster():
    code, text = run_cli(["metrics", "--graph", "path:3"])
    assert code == 0
    assert "foster check: sum over edges r = 2" in text


def test_metrics_json_roundtrip():
    code, text = run_cli(["metrics", "--graph", "cycle:5", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    spec = payload["routes"]["spectral"]
    oracle = payload["routes"]["oracle"]
    dev = max(
        abs(a - b)
        for ra, rb in zip(spec["hitting"], oracle["hitting"])
        for a, b in zip(ra, rb)
    )
    assert dev <= payload["max_route_deviation"] + 1e-15


def test_spectrum_json():
    code, text = run_cli(["spectrum", "--graph", "k3"])
    payload = json.loads(text)
    assert code == 0
    assert payload["eigenvalues"] == pytest.approx([1.0, -0.5, -0.5])
    code, text = run_cli(["spectrum", "--graph", "k3", "--q", "1"])
    payload = json.loads(text)
    assert sorted(payload["branch"]) == sorted(
        ["plus", "plus", "plus", "minus", "minus", "minus"]
    )


def test_transfer_table():
    code, text = run_cli(["transfer", "--graph", "k3", "--q", "1"])
    assert code == 0
    assert "max |deviation|" in text
    assert "kemeny" in text


def test_verify_passes():
    code, text = run_cli(
        ["verify", "--seed", "7", "--trials", "6", "--nmax", "7", "--qmax", "3"]
    )
    assert code == 0
    assert text.count("[pass]") == 4


def test_verify_single_graph():
    code, text = run_cli(["verify", "--graph", "k2", "--q", "2"])
    assert code == 0
    assert "[pass]" in text


def test_verify_deterministic():
    args = ["verify", "--seed", "11", "--trials", "5", "--nmax", "7"]
    assert run_cli(args) == run_cli(args)


def test_pseudofractal_rows():
    code, text = run_cli(["pseudofractal", "--q", "1", "--kmax", "0"])
    assert code == 0
    assert "1.33333333333" in text
    code, text = run_cli(["pseudofractal", "--q", "1", "--kmax", "1"])
    assert "10.8333333333" in text


def test_pseudofractal_csv_sizes():
    code, text = run_cli(["pseudofractal", "--q", "2", "--kmax", "3", "--format", "csv"])
    assert code == 0
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert len(lines) == 5  # header + 4 rows
    last = lines[-1].split(",")
    # n_{2,3} = 3*(5^3-1)/2+3 = 189, m_{2,3} = 375
    assert last[1] == "189" and last[2] == "375"


def test_pseudofractal_json_17_digits():
    code, text = run_cli(["pseudofractal", "--q", "1", "--kmax", "1", "--format", "json"])
    rows = json.loads(text)
    assert rows[1]["kemeny"] == pytest.approx(14 / 3, abs=1e-15)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt, name", [
    ("table", "metrics_cycle5.txt"),
    ("json", "metrics_cycle5.json"),
])
def test_metrics_cycle5_golden(fmt, name):
    code, text = run_cli(["metrics", "--graph", "cycle:5", "--format", fmt])
    assert code == 0
    assert text == (GOLDEN / name).read_text()


def test_metrics_cycle5_golden_is_exact():
    """Every number in the JSON golden file is within 1e-14 (relative to
    max(1, |value|)) of the exact C5 values: T_ij = k(5-k) and
    r_ij = k(5-k)/5 at cycle distance k, Kemeny 4, Kirchhoff 10,
    additive and multiplicative 40, Foster sum n - 1 = 4, and no
    deviation between the routes."""
    payload = json.loads((GOLDEN / "metrics_cycle5.json").read_text())
    k = np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
    k = np.minimum(k, 5 - k)
    exact = {
        "hitting": k * (5 - k),
        "resistance": k * (5 - k) / 5,
        "kemeny": 4, "kirchhoff": 10, "additive": 40, "multiplicative": 40,
    }
    pairs = [(payload["max_route_deviation"], 0), (payload["foster_edge_sum"], 4)]
    assert set(payload["routes"]) == {"spectral", "oracle"}
    for route in payload["routes"].values():
        assert set(route) == set(exact)
        pairs += [(np.array(route[key]), np.array(want)) for key, want in exact.items()]
    for got, want in pairs:
        assert np.shape(got) == np.shape(want)
        assert (np.abs(got - want) <= 1e-14 * np.maximum(1, np.abs(want))).all()


def test_verify_summary_lines():
    code, text = run_cli(
        ["verify", "--seed", "5", "--trials", "4", "--nmax", "7", "--qmax", "2"]
    )
    assert code == 0
    pattern = re.compile(
        r"\[pass\] (\S+): max deviation \S+ \(tol (\S+), (\d+) checks\)"
    )
    rows = [pattern.fullmatch(line).groups() for line in text.splitlines()]
    assert rows == [
        ("spectrum-lift", "1.0e-08", "8"),
        ("transfer-vs-oracle", "1.0e-08", "56"),
        ("identity-suite", "1.0e-08", "40"),
        ("iterated-telescoping", "1.0e-10", "336"),
    ]


def test_metrics_json_matrices_exact():
    code, text = run_cli(["metrics", "--graph", "cycle:5", "--format", "json"])
    assert code == 0
    routes = json.loads(text)["routes"]
    for route in ("spectral", "oracle"):
        rep = compute_metrics(cycle_graph(5), route)
        assert routes[route]["hitting"] == rep.hitting.tolist()
        assert routes[route]["resistance"] == rep.resistance.tolist()
        assert routes[route]["kemeny"] == rep.kemeny


def test_transfer_rows_k3():
    code, text = run_cli(["transfer", "--graph", "k3", "--q", "1"])
    assert code == 0
    lines = text.splitlines()
    assert [line[:20].strip() for line in lines[1:-1]] == [
        "hit old/old", "res old/old",
        "hit new/old", "hit old/new", "res new/old",
        "hit new/new", "hit new/new reverse", "res new/new",
        "kemeny", "kirchhoff", "additive", "multiplicative",
        "cross sum", "new-pair sum",
    ]
    worst = float(lines[-1].split(":")[1])
    assert worst == max(float(line.split()[-1]) for line in lines[1:-1])
    assert worst < 1e-12


def test_pseudofractal_overflow_is_input_error(capsys):
    code, _ = run_cli(["pseudofractal", "--q", "1", "--kmax", "321"])
    assert code == 0
    code, text = run_cli(["pseudofractal", "--q", "1", "--kmax", "322"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "k=322" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--nmax", "2"), ("--nmax", "1"), ("--qmax", "0"), ("--qmax", "-1"), ("--trials", "0"),
])
def test_verify_bad_corpus_flags(flag, value, capsys):
    code, text = run_cli(["verify", "--trials", "2", flag, value])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
