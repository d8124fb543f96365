"""Benchmark of trispectra: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload corpus-verify --seed 20240 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout.  A run repeats whole passes over the workload's
operations until ``--seconds`` have gone by, checks every output outside
its timing, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
#: one BLAS thread: with the default count a corpus pass spread over
#: 12.1-14.3 s on two cores, against 10.3-11.9 s with one
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: set-ups in one run (this process plus fresh child processes); the
#: reported set-up time is their median
SETUPS = 5
WORKLOAD_NAMES = ("corpus-verify", "web-cli", "closed-forms")


def _percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def _environment() -> str:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas={blas['name']} {blas['version']} "
        f"blas_threads={threads}"
    )


def _checked(label, check, *args) -> list:
    """Errors found by a check; a check that raises is an error too."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{label}: check raised {exc.__class__.__name__}: {exc}"]


def _build(name, seed, tiny, workdir):
    import workloads

    return workloads.WORKLOADS[name](seed, workdir, tiny)


def _child_setup_s(name, seed) -> float:
    """Set-up time of a fresh process, from its first line to its first
    operation ready."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(name, seed, seconds, trace, tiny=False, started=None):
    """Run one workload; return (result object, notes for the log)."""
    started = time.perf_counter() if started is None else started
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = None
    pass_times, errors = [], []
    attempted = failed = 0
    try:
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.record(True)
        wl = _build(name, seed, tiny, workdir)
        ops = wl.ops()
        setup_s = time.perf_counter() - started
        if tracer:
            tracer.record(False)

        latencies = [[] for _ in ops]
        begin = time.perf_counter()
        while True:
            if tracer:
                tracer.new_pass()
            # the first pass runs unchecked, and the peak memory is read
            # after it, so that the checks' own buffers do not set it;
            # later passes run the same operations and check them all
            checking = bool(pass_times)
            pass_time = 0.0
            for op, samples in zip(ops, latencies):
                attempted += 1
                if tracer:
                    tracer.record(True)
                t = time.perf_counter()
                try:
                    out = op.run()
                except Exception:
                    failed += 1
                    print(f"operation failed: {op.label}", file=sys.stderr)
                    traceback.print_exc()
                    continue
                finally:
                    if tracer:
                        tracer.record(False)
                dt = time.perf_counter() - t
                samples.append(dt)
                pass_time += dt
                if checking:
                    errors += _checked(op.label, op.check, out)
                del out
            if not checking:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            pass_times.append(pass_time)
            if len(pass_times) >= 2 and time.perf_counter() - begin >= seconds:
                break
        errors += _checked("run", wl.check_run)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # an operation's latency is its median over the passes; the
    # percentiles run over operations, so that one slow stretch of the
    # machine does not decide a percentile that sits on a rare operation.
    # They are printed, not reported as metrics: from run to run they
    # spread by more than any bound BENCHMARK.json may set.
    op_latency = sorted(statistics.median(s) for s in latencies if s)
    notes = [
        f"workload={name} seed={seed} passes={len(pass_times)} operations/pass={len(ops)}",
        f"operation latency over {len(op_latency)} operations "
        f"({sum(map(len, latencies))} samples): "
        f"p50 {1e3 * statistics.median(op_latency):.4f} ms, "
        f"p95 {1e3 * _percentile(op_latency, 0.95):.4f} ms",
    ]
    if trace:
        metrics = tracer.report()
        notes.append(f"traced job_s={statistics.median(pass_times):.4f}")
    else:
        setups = [setup_s]
        if not tiny:
            setups += [_child_setup_s(name, seed) for _ in range(SETUPS - 1)]
        metrics = {
            "setup_s": statistics.median(setups),
            "job_s": statistics.median(pass_times),
            "peak_rss_mb": peak_rss_mb,
        }
        notes.append(
            f"peak RSS (MB): {peak_rss_mb:.1f} after the unchecked first pass, "
            f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} with the checks"
        )
        notes.append(
            "set-ups (s): " + " ".join(f"{s:.4f}" for s in setups)
            + "; pass times (s): " + " ".join(f"{p:.4f}" for p in pass_times)
        )
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    if sorted(metrics) != sorted(m["name"] for m in spec[kind]):
        raise RuntimeError(f"measured metrics differ from the {kind} list of BENCHMARK.json")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]
        },
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "trispectra" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-setup-", dir=OUT_DIR))
        try:
            _build(args.workload, args.seed, False, workdir)
            print(time.perf_counter() - _STARTED)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result, notes = measure(args.workload, args.seed, args.seconds, args.trace,
                            started=_STARTED)
    notes.insert(0, _environment())
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"notes": notes, "result": result}, indent=1) + "\n")
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(BLAS_ENV)
    sys.exit(main())
