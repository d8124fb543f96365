"""Self-test of the benchmark, kept out of the package's test suite:

    python3 -m pytest -q benchmarks/test_bench.py

Every workload runs at a tiny size and its output is checked against the
schema in BENCHMARK.json.  A 1 % perturbation of one coefficient of a
closed form must make each workload's correctness check fail.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from trispectra import iterated, transfer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_result_schema(workload, trace):
    result, _ = run.measure(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    json.dumps(result)


def _kemeny_leading(orig):
    """transfer_kemeny with its (4q+2)/(q+2) coefficient raised by 1 %."""

    def mutated(q, summary):
        return orig(q, summary) + Fraction(1, 100) * Fraction(4 * q + 2, q + 2) * summary.kemeny

    return mutated


def _kirchhoff_square_term(orig):
    """iterated_kirchhoff with the coefficient of its (2q+1)^{2k} term raised by 1 %."""

    def mutated(summary, q, k):
        m = summary.m
        t2 = (2 * q + 1) ** (2 * k)
        e = Fraction(2, q + 2) ** k
        coeff = Fraction(m * m * (2 * q + 3) ** 2, 8 * (2 * q + 1) * (2 * q + 5))
        return orig(summary, q, k) + Fraction(1, 100) * (t2 - e) * coeff

    return mutated


MUTANTS = {
    "corpus-verify": (transfer, "transfer_kemeny", _kemeny_leading),
    "web-cli": (transfer, "transfer_kemeny", _kemeny_leading),
    "closed-forms": (iterated, "iterated_kirchhoff", _kirchhoff_square_term),
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_mutated_closed_form_fails_the_check(workload, monkeypatch):
    module, name, mutate = MUTANTS[workload]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    result, _ = run.measure(workload, seed=3, seconds=0, trace=0, tiny=True)
    assert result["failed"] == 0
    assert result["correct"] is False


# The package's own suites catch the mutants above too, so the tests
# below call the benchmark's checks directly: each must fail on a value
# that only its independent numerics can tell is wrong.


def test_corpus_run_check_catches_a_wrong_kemeny(tmp_path, monkeypatch):
    wl = workloads.CorpusVerify(3, tmp_path, tiny=True)
    assert wl.check_run() == []
    monkeypatch.setattr(transfer, "transfer_kemeny", _kemeny_leading(transfer.transfer_kemeny))
    errors = wl.check_run()
    assert errors and all("transfer_kemeny" in e for e in errors)


def _scaled_row(text, name, factor):
    """`transfer` output with one row's value and oracle scaled alike,
    so that the row still agrees with its oracle."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields[0] == name:
            got, want = (float(x) * factor for x in fields[1:3])
            lines[i] = f"{name} {got!r} {want!r} 0"
    return "\n".join(lines) + "\n"


def test_web_checks_catch_values_that_agree_with_the_package(tmp_path):
    wl = workloads.WebCli(3, tmp_path, tiny=True)
    w = wl.webs[0]

    text = workloads._run_cli(["transfer", "--input", w.path, "--q", "1"])
    assert wl._check_transfer(w, text) == []
    errors = wl._check_transfer(w, _scaled_row(text, "kemeny", 1.01))
    assert len(errors) == 1 and "kemeny" in errors[0]

    report = json.loads(workloads._run_cli(["metrics", "--input", w.path, "--format", "json"]))
    assert wl._check_metrics(w, json.dumps(report)) == []
    for route in report["routes"].values():
        route["kirchhoff"] *= 1.01
    errors = wl._check_metrics(w, json.dumps(report))
    assert len(errors) == 2 and all("kirchhoff" in e for e in errors)

    spectrum = json.loads(workloads._run_cli(["spectrum", "--input", w.path, "--q", "1"]))
    spectrum["eigenvalues"][0] += 1e-6
    assert wl._check_spectrum(w, json.dumps(spectrum))


def test_closed_form_numerics_catch_a_wrong_value(tmp_path):
    wl = workloads.ClosedForms(3, tmp_path, tiny=True)
    vals, nxt = wl._step("P3", 2, 2)
    assert wl._check_step("P3", 2, 2, (vals, nxt)) == []
    wrong = (*vals[:3], vals[3] * Fraction(101, 100))
    errors = wl._check_step("P3", 2, 2, (wrong, nxt))
    assert len(errors) == 1 and "numerics" in errors[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "closed-forms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
