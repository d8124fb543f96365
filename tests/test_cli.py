import functools
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import trispectra
from trispectra import cli, metrics, spectral, verify
from trispectra.cli import _write_json, main
from trispectra.errors import ConvergenceFailure, TrispectraError
from trispectra.graph import (
    EdgeListParseError, build_graph, complete_graph, cycle_graph, format_edge_list,
    parse_edge_list, path_graph,
)
from trispectra.iterated import pseudofractal_metrics
from trispectra.metrics import compute_metrics
from trispectra.spectral import eigendecompose, lift_eigenvalues, lift_spectrum
from trispectra.triangulation import (
    iterate_triangulation, new_node_generator, predicted_counts, q_triangulate,
)
from trispectra.verify import make_corpus

from test_verify import _count


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


def test_triangulate_provenance_spans_blocks():
    # 5998 new nodes: the provenance rows fill one 4096-row block and part
    # of a second, and each row is new_node_generator's for its node
    g = path_graph(3000)
    code, text = run_cli(["triangulate", "--graph", "path:3000", "--q", "2"])
    head, provenance = text.split("# provenance: new_node generator_edge copy\n")
    new = range(g.n + 1, g.n + 2 * g.m + 1)
    assert code == 0 and len(new) == 5998
    r = q_triangulate(g, 2).result
    assert head == f"# R_2(G): {r.n} nodes, {r.m} edges\n" + format_edge_list(r)
    assert provenance == "".join(
        "{} {} {}\n".format(x, *new_node_generator(g.n, g.m, 2, x)) for x in new
    )


def test_triangulate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n1 2\nbroken\n")
    code, _ = run_cli(["triangulate", "--input", str(bad), "--q", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: parse error line 3: expected 'i j'\n"


def test_triangulate_missing_file():
    code, _ = run_cli(["triangulate", "--input", "/nonexistent.edges", "--q", "1"])
    assert code == 2


def test_non_utf8_input_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    code, _ = run_cli(["metrics", "--input", str(bad)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot read {bad}: byte 0 is not UTF-8\n"


def test_triangulate_disconnected(tmp_path):
    bad = tmp_path / "disc.edges"
    bad.write_text("4 2\n1 2\n3 4\n")
    code, _ = run_cli(["metrics", "--input", str(bad)])
    assert code == 2


def test_huge_node_count_header_is_input_error(tmp_path, capsys):
    # reached np.full in the BFS colouring: a raw ValueError and exit 1
    bad = tmp_path / "huge.edges"
    bad.write_text(f"{10**20} 1\n1 2\n")
    code, _ = run_cli(["metrics", "--input", str(bad)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: DisconnectedError: graph is disconnected: "
        f"{10**20} nodes need at least {10**20 - 1} edges, got 1\n"
    )


@pytest.mark.parametrize("text, line_no, message", [
    ("# header next\n3 2 1\n1 2\n2 3\n", 2, "expected header 'n m'"),
    ("\n3\n1 2\n", 2, "expected header 'n m'"),
    ("3 two\n1 2\n2 3\n", 1, "non-integer header"),
    ("# only comments\n\n   # and blanks\n", 1, "empty input"),
    ("", 1, "empty input"),
    ("3 3\n1 2\n2 3\n", 1, "header declares 3 edges but 2 were given"),
])
def test_header_parse_errors(tmp_path, capsys, text, line_no, message):
    with pytest.raises(EdgeListParseError) as info:
        parse_edge_list(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"parse error line {line_no}: {message}"
    bad = tmp_path / "bad.edges"
    bad.write_text(text)
    code, _ = run_cli(["metrics", "--input", str(bad)])
    assert code == 2
    assert capsys.readouterr().err == f"error: parse error line {line_no}: {message}\n"


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


PSEUDOFRACTAL_JSON_PINS = [
    (1, 321, "b1484164889dca683fb2a57d094de101dae9ba3088cd446a85db7c9c99a546d2"),
    (2, 219, "25aadaa00fb392ead7f5de860510dd930279fd304511956cfa4ef9c6e94bc65c"),
    (3, 181, "78d2b913aedb68adcfeb1ecdcded14e092fc4bf504753e100a00ef5db9056830"),
]


@pytest.mark.parametrize("q, kmax, digest", PSEUDOFRACTAL_JSON_PINS)
def test_pseudofractal_json_bytes(q, kmax, digest):
    """The exact closed forms, rounded once to float, up to the largest
    k whose row fits: the JSON bytes are pinned by their SHA-256."""
    code, text = run_cli(
        ["pseudofractal", "--q", str(q), "--kmax", str(kmax), "--format", "json"]
    )
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


PSEUDOFRACTAL_TABLE_CSV_PINS = [
    (1, 321, "table", "4cf0f2c34c2dbf59029ce3c4065b7f66ae9c97e5d1531e5167ee2cf77a772566"),
    (1, 321, "csv", "2c12e50dcb832d988066d2af2cd159bfe957f0449812050ee579ca49f4d8a21f"),
    (2, 219, "table", "64926127b847fc23fcbb78d4f536c1789ef1eab493eac089d20afea7f60109b7"),
    (2, 219, "csv", "1ebeeea95fdb03291ff2f464999e26ea804b03505b21d625d31d4792c91ec0b5"),
    (3, 181, "table", "551bce5f59b3ba826dbad499e7a1284a1d5c521e3cbd1f2682921dd721068383"),
    (3, 181, "csv", "1a2738862d6b787f5b33fd83b5b09dca72cf525c3f5ee2ab4ab639bb8e957f32"),
]


@pytest.mark.parametrize("q, kmax, fmt, digest", PSEUDOFRACTAL_TABLE_CSV_PINS)
def test_pseudofractal_table_csv_bytes(q, kmax, fmt, digest):
    """The table and csv rows up to the same k, pinned like the JSON."""
    code, text = run_cli(
        ["pseudofractal", "--q", str(q), "--kmax", str(kmax), "--format", fmt]
    )
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GOLDEN = Path(__file__).parent / "golden"


METRICS_GOLDENS = [
    ("table", "metrics_cycle5.txt"),
    ("json", "metrics_cycle5.json"),
]
TRANSFER_GOLDENS = [
    (["--q", "2", "--graph", "path:4"], "transfer_path4_q2.txt"),
    (["--q", "3", "--graph", "cycle:5"], "transfer_cycle5_q3.txt"),
]


@pytest.mark.parametrize("fmt, name", METRICS_GOLDENS)
def test_metrics_cycle5_golden(fmt, name):
    code, text = run_cli(["metrics", "--graph", "cycle:5", "--format", fmt])
    assert code == 0
    assert text == (GOLDEN / name).read_text()


@pytest.mark.parametrize("args, name", TRANSFER_GOLDENS)
def test_transfer_golden(args, name):
    code, text = run_cli(["transfer", *args])
    assert code == 0
    assert text.encode() == (GOLDEN / name).read_bytes()


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


def test_metrics_foster_sum_is_the_identity_suites(tmp_path):
    # on R_{1,3}(K3), m = 81, numpy's pairwise sum of the edge resistances
    # and Python's sum in edge order differ in the last bits, so the CLI and
    # the suite agree only if they share one sum
    web = iterate_triangulation(complete_graph(3), 1, 3)[-1].result
    path = tmp_path / "web.txt"
    path.write_text(format_edge_list(web))
    code, text = run_cli(["metrics", "--input", str(path), "--format", "json"])
    suite = verify.suite_identities([(web, 1)], verify.DEFAULT_TOLERANCES["identity"])
    (foster,) = [c.got for c in suite.checks if c.kind == "foster G"]
    assert code == 0 and json.loads(text)["foster_edge_sum"] == foster


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
    assert capsys.readouterr().err == (
        "error: FloatOverflowError: pseudofractal_rows at q=1, k=322 exceeds the float range\n"
    )


@pytest.mark.parametrize("flag, value", [
    ("--nmax", "2"), ("--nmax", "1"), ("--qmax", "0"), ("--qmax", "-1"), ("--trials", "0"),
    ("--seed", "-1"),
])
def test_verify_bad_corpus_flags(flag, value, capsys):
    code, text = run_cli(["verify", "--trials", "2", flag, value])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("q", ["0", "-1"])
def test_verify_bad_q(q, capsys):
    code, text = run_cli(["verify", "--graph", "k3", "--q", q])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        f"error: InvalidQError: q must be a positive integer, got {q}\n"
    )


def test_verify_q_defaults_to_1():
    assert run_cli(["verify", "--graph", "k3"]) == run_cli(["verify", "--graph", "k3", "--q", "1"])


@pytest.mark.parametrize("q", ["0", "1", "5"])
def test_verify_corpus_rejects_q(q, capsys):
    # the corpus cycles q over 1..--qmax, so an explicit --q is an error
    code, text = run_cli(["verify", "--trials", "2", "--q", q])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1..--qmax" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_pseudofractal_negative_kmax(fmt, capsys):
    code, text = run_cli(["pseudofractal", "--q", "1", "--kmax", "-1", "--format", fmt])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: InvalidKError: ")


def test_spectrum_q_must_be_positive(capsys):
    code, text = run_cli(["spectrum", "--graph", "k3", "--q", "0"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: InvalidQError: q must be a positive integer, got 0\n"
    )


# ---- JSON output: the indent=2 layout of json.dumps, byte for byte ----


def _indent2(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _assert_same_text(got: str, want: str):
    """got == want, reported by the first differing offset: pytest's own
    diff of two texts of some 100 kB takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))
        pytest.fail(f"texts differ from offset {at}: {got[at:at + 40]!r} vs {want[at:at + 40]!r}")


def _metrics_reference(g) -> str:
    """`metrics --format json` as json.dumps(indent=2) writes it, from
    the library's reports with every matrix as nested lists."""
    spec, oracle = (compute_metrics(g, route) for route in ("spectral", "oracle"))
    max_dev = max(
        np.abs(spec.hitting - oracle.hitting).max(),
        np.abs(spec.resistance - oracle.resistance).max(),
        abs(spec.kemeny - oracle.kemeny),
    )
    return _indent2({
        "n": g.n,
        "m": g.m,
        "routes": {
            route: {
                "kemeny": rep.kemeny,
                "kirchhoff": rep.kirchhoff,
                "additive": rep.additive,
                "multiplicative": rep.multiplicative,
                "hitting": rep.hitting.tolist(),
                "resistance": rep.resistance.tolist(),
            }
            for route, rep in (("spectral", spec), ("oracle", oracle))
        },
        "max_route_deviation": float(max_dev),
        "foster_edge_sum": float(sum(oracle.resistance[i - 1, j - 1] for i, j in g.edges)),
    })


def _relabelled_web(k=3):
    """R_{1,k}(K3), n = 42 at k = 3, with its nodes shuffled."""
    web = iterate_triangulation(complete_graph(3), 1, k)[-1].result
    perm = np.random.default_rng(3).permutation(web.n) + 1
    return build_graph(web.n, [(perm[i - 1], perm[j - 1]) for i, j in web.edges])


@pytest.mark.parametrize("which", ["cycle5", "corpus", "web"])
def test_metrics_json_is_indent2_layout(which, tmp_path):
    if which == "cycle5":
        g, source = cycle_graph(5), ["--graph", "cycle:5"]
    else:
        g = make_corpus(19, 1, 10, 1)[0][0] if which == "corpus" else _relabelled_web()
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(g))
        source = ["--input", str(path)]
    code, text = run_cli(["metrics", *source, "--format", "json"])
    assert code == 0
    _assert_same_text(text, _metrics_reference(g))


def _written(payload) -> str:
    out = io.StringIO()
    _write_json(payload, out)
    return out.getvalue()


def test_write_json_non_finite_and_small_arrays():
    odd = np.array([[float("nan"), float("inf")], [-float("inf"), -0.0], [0.0, 1e-300]])
    assert _written({"odd": odd}) == _indent2({"odd": odd.tolist()})
    assert _written(np.array([[-0.0]])) == _indent2([[-0.0]])
    nested = {
        "list": [np.arange(3.0), {"deep": np.ones((2, 1, 2))}],
        "empty": [np.zeros(0), np.zeros((2, 0))],
        "scalars": [float("nan"), -0.0, 1, "text", None, True],
    }
    assert _written(nested) == _indent2({
        "list": [[0.0, 1.0, 2.0], {"deep": [[[1.0, 1.0]], [[1.0, 1.0]]]}],
        "empty": [[], [[], []]],
        "scalars": nested["scalars"],
    })


def test_write_json_matches_json_dumps_on_any_array():
    """Property test of the writer's bytes: any 1-D to 3-D array, empty
    sides included, of floats with many repeats, both zeros, NaN, ±inf and
    subnormals, or of ints or bools, written as json.dumps writes tolist()."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    special = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.5e-310, 1.5]
    shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)
    arrays = st.one_of(
        hnp.arrays(np.float64, shapes, elements=st.one_of(st.sampled_from(special), st.floats())),
        hnp.arrays(np.float64, shapes, elements=st.sampled_from(special)),
        hnp.arrays(np.float32, shapes, elements=st.floats(width=32)),
        hnp.arrays(st.sampled_from([np.int64, np.int32, np.uint8, np.bool_]), shapes),
    )

    @settings(max_examples=100, deadline=None)
    @given(arrays)
    @example(np.zeros(0))
    @example(np.zeros((2, 0)))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    def check(a):
        _assert_same_text(_written({"a": a, "b": [a]}),
                          _indent2({"a": a.tolist(), "b": [a.tolist()]}))

    check()


def test_write_json_encodes_each_distinct_value_once(monkeypatch):
    # 3 values plus 0.0 and -0.0, which json spells apart, over 1600 entries
    a = np.resize([1.5, 2 / 3, -7.25, 0.0, -0.0], (40, 40))
    want = _indent2({"a": a.tolist()})
    floats = []
    dumps = json.dumps

    def counted(obj, **kwargs):
        stack = [obj]
        while stack:
            x = stack.pop()
            if isinstance(x, float):
                floats.append(x)
            elif isinstance(x, (list, dict)):
                stack.extend(x.values() if isinstance(x, dict) else x)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    _assert_same_text(_written({"a": a}), want)
    assert len(floats) == 5


def _assert_spectrum_is_lift(g, q, tmp_path):
    """`spectrum --q` on g writes the library's lift as json.dumps(indent=2)
    writes it."""
    path = tmp_path / "g.edges"
    path.write_text(format_edge_list(g))
    code, text = run_cli(["spectrum", "--input", str(path), "--q", str(q)])
    spec = eigendecompose(g)
    assert code == 0
    _assert_same_text(text, _indent2({
        "eigenvalues": lift_spectrum(spec, q).eigenvalues.tolist(),
        "branch": list(lift_eigenvalues(spec, q)[1]),
    }))


def test_spectrum_and_pseudofractal_json_unchanged(tmp_path):
    _assert_spectrum_is_lift(_relabelled_web(), 2, tmp_path)
    code, text = run_cli(["pseudofractal", "--q", "2", "--kmax", "12", "--format", "json"])
    keys = ("k", "n", "m", "kemeny", "multiplicative", "additive", "kirchhoff")
    assert code == 0
    assert text == _indent2([
        dict(zip(keys, (k, *predicted_counts(3, 3, 2, k), *map(float, pseudofractal_metrics(2, k)))))
        for k in range(13)
    ])


SPECTRUM_LIFT_PINS = [
    ("cycle:6", 2, "a03b97d7172aea12fdece3aa419dbec4c66786bdb04e3fb97804a84561e1cbe7"),
    ("star:10", 3, "b5f1ac2d92bfbf58c9db017b1deb3afd35fb89f878f849f971055c869dcab56c"),
]


@pytest.mark.parametrize("source, q, digest", SPECTRUM_LIFT_PINS)
def test_spectrum_lift_bytes(source, q, digest):
    """`spectrum --q` on two bipartite builtins, pinned by the SHA-256 of
    its JSON.  The digits come from LAPACK's eigh of G, so a numpy built
    on another LAPACK may move them."""
    code, text = run_cli(["spectrum", "--graph", source, "--q", str(q)])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_spectrum_lift_web_bytes(tmp_path):
    """`spectrum --q 1` on the relabelled R_{1,5}(K3) (n = 366) against the
    library's lift in the same process: most of its eigenvalues move in
    the last bits with the BLAS thread count, so no digest can pin them."""
    _assert_spectrum_is_lift(_relabelled_web(5), 1, tmp_path)


#: writes the SHA-256 of the CLI's output for each argv list read from stdin
_DIGEST_SCRIPT = """
import hashlib, io, json, sys
from trispectra.cli import main
for argv in json.load(sys.stdin):
    out = io.StringIO()
    assert main(argv, out=out) == 0, argv
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_byte_pins_hold_at_one_blas_thread():
    """Every SHA-256 pin and golden output of this file, recomputed in one
    child process with OpenBLAS held to one thread, so that a pin on an
    input whose digits move with the thread count fails on any machine."""
    pins = [(["pseudofractal", "--q", str(q), "--kmax", str(kmax), "--format", "json"], digest)
            for q, kmax, digest in PSEUDOFRACTAL_JSON_PINS]
    pins += [(["pseudofractal", "--q", str(q), "--kmax", str(kmax), "--format", fmt], digest)
             for q, kmax, fmt, digest in PSEUDOFRACTAL_TABLE_CSV_PINS]
    pins += [(["spectrum", "--graph", source, "--q", str(q)], digest)
             for source, q, digest in SPECTRUM_LIFT_PINS]
    goldens = [(["metrics", "--graph", "cycle:5", "--format", fmt], name)
               for fmt, name in METRICS_GOLDENS]
    goldens += [(["transfer", *args], name) for args, name in TRANSFER_GOLDENS]
    pins += [(argv, hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest())
             for argv, name in goldens]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT], input=json.dumps([argv for argv, _ in pins]),
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert len(pins) == 15
    assert list(zip((argv for argv, _ in pins), child.stdout.split())) == pins


def test_spectrum_lift_builds_no_eigenvectors(monkeypatch, tmp_path):
    # `spectrum --q` prints eigenvalues and branches only: one
    # eigendecomposition of G, and no lifted eigenvector matrix, ker C
    # basis or QR
    path = tmp_path / "web.edges"
    path.write_text(format_edge_list(_relabelled_web()))
    calls = Counter()
    names = ("lift_spectrum", "kernel_basis", "_qr_kernel", "qr", "eigendecompose")
    for owner, name in zip((spectral, spectral, spectral, np.linalg, spectral), names):
        _count(monkeypatch, calls, owner, name)
    code, _ = run_cli(["spectrum", "--input", str(path), "--q", "2"])
    assert code == 0
    assert [calls[name] for name in names] == [0, 0, 0, 0, 1]


def test_metrics_csv_runs_only_the_oracle_route(monkeypatch):
    # csv prints the oracle matrices alone, so no eigendecomposition runs
    # and an eigh failure cannot fail it for a value it never writes
    calls = Counter()
    _count(monkeypatch, calls, spectral, "eigendecompose")
    code, text = run_cli(["metrics", "--graph", "cycle:5", "--format", "csv"])
    assert (code, calls["eigendecompose"]) == (0, 0)
    g = cycle_graph(5)
    want = ""
    for name, mat in (("hitting", metrics.hitting_oracle(g)),
                      ("resistance", metrics.resistance_oracle(g))):
        want += f"# {name}\n" + "".join(",".join(map(cli._f12, row)) + "\r\n" for row in mat)
    assert text == want


# ---- input contract: every input is used or rejected ------------------

#: the subcommands that take --graph/--input, with their other required flags
_GRAPH_COMMANDS = {
    "triangulate": ["--q", "1"],
    "metrics": [],
    "spectrum": [],
    "transfer": ["--q", "1"],
    "verify": [],
}


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.edges"
    path.write_text("2 1\n1 2\n")
    return str(path)


@pytest.mark.parametrize("command", list(_GRAPH_COMMANDS))
def test_graph_and_input_exclude_each_other(command, k2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--graph", "k3", "--input", k2_file, *_GRAPH_COMMANDS[command]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--input: not allowed with argument --graph" in err


@pytest.mark.parametrize("command", [c for c in _GRAPH_COMMANDS if c != "verify"])
def test_graph_source_required(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *_GRAPH_COMMANDS[command]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "one of the arguments --graph --input is required" in err


@pytest.mark.parametrize("flag, value", [
    ("--seed", "3"), ("--trials", "0"), ("--nmax", "10"), ("--qmax", "-1"),
])
@pytest.mark.parametrize("source", ["--graph", "--input"])
def test_verify_single_graph_rejects_corpus_flags(source, flag, value, k2_file, capsys):
    graph = "k3" if source == "--graph" else k2_file
    code, text = run_cli(["verify", source, graph, flag, value])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == f"error: {flag}: corpus flags apply only without --graph or --input\n"


def test_verify_passes_only_given_corpus_flags(monkeypatch):
    calls = []
    # wraps keeps run_all's signature, from which the parser reads the defaults
    fake = functools.wraps(verify.run_all)(lambda **kwargs: calls.append(kwargs) or [])
    monkeypatch.setattr(cli.verify, "run_all", fake)
    assert run_cli(["verify"]) == (0, "")
    assert run_cli(["verify", "--trials", "2", "--qmax", "1"]) == (0, "")
    assert calls == [{}, {"trials": 2, "qmax": 1}]


def test_verify_help_reads_corpus_defaults_from_run_all(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    for flag, default in inspect.signature(verify.run_all).parameters.items():
        assert re.search(rf"--{flag} {flag.upper()} [^-]*\(default {default.default}\)", help_text)


@pytest.mark.parametrize("graph", ["k3:99", "k2:junk", "cycle:x", "star:2:3"])
def test_builtin_with_bad_size_is_input_error(graph, capsys):
    code, text = run_cli(["metrics", "--graph", graph])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: GraphError: builtin '{graph.partition(':')[0]}'")


_EXPORTED_ERRORS = sorted(
    (v for v in vars(trispectra).values()
     if isinstance(v, type) and issubclass(v, TrispectraError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", _EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_each_library_error_has_one_exit_status(error, monkeypatch, capsys):
    # main maps each class to its status and line, and rewrites no message
    if error is trispectra.EdgeListParseError:
        exc, want = error(3, "boom"), (2, "error: parse error line 3: boom\n")
    elif error is ConvergenceFailure:
        exc, want = error("boom"), (3, "numerical failure: boom\n")
    else:
        exc, want = error("boom"), (2, f"error: {error.__name__}: boom\n")

    def fail(*args):
        raise exc

    monkeypatch.setattr(metrics, "hitting_oracle", fail)
    assert run_cli(["metrics", "--graph", "k3"]) == (want[0], "")
    assert capsys.readouterr() == ("", want[1])


def _singular(x):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("fault", [lambda x: x + 1e-6 * np.eye(len(x)), lambda x: x * np.nan,
                                   _singular], ids=["off", "nan", "singular"])
def test_numerical_failure_names_matrix_residual_and_limit(fault, monkeypatch, capsys):
    # a matrix that numpy cannot invert leaves a NaN residual, which misses
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: fault(inv(a)))
    code, text = run_cli(["metrics", "--graph", "k3"])
    assert (code, text) == (3, "")
    err = capsys.readouterr().err
    found = re.fullmatch(
        r"numerical failure: fundamental matrix Z residual (\S+) exceeds (\S+)\n", err
    )
    assert found, err
    residual, limit = map(float, found.groups())
    assert limit == 3e-10 and not residual <= limit
