"""Command-line front door.

Subcommands: triangulate, metrics, transfer, spectrum, verify,
pseudofractal.  Exit codes: 0 ok, 1 verification failure, 2 input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys

import numpy as np

from . import verify
from .errors import (
    ConvergenceFailure, EdgeListParseError, SingularSystemError, TrispectraError, check_k,
)
from .graph import builtin_graph, format_edge_list, parse_edge_list
from .iterated import PSEUDOFRACTAL_ORDER, pseudofractal_metrics
from .metrics import INDICES, compute_metrics
from .spectral import eigendecompose, lift_eigenvalues
from .triangulation import new_node_generator, predicted_counts, q_triangulate

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class CliInputError(Exception):
    pass


def _load_graph(args):
    """The graph of ``--graph`` or ``--input``; argparse admits exactly one."""
    if args.input is None:
        try:
            return builtin_graph(args.graph)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {args.input}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"cannot read {args.input}: byte {exc.start} is not UTF-8") from exc
    return parse_edge_list(text)


def _f12(x) -> str:
    return f"{float(x):.12g}"


def _write_json(payload, out) -> None:
    """Write what ``json.dump(payload, out, indent=2)`` and a newline
    write, byte for byte, with every ndarray in ``payload`` in place of
    its ``tolist()``.  ``indent`` forces json's pure-Python encoder, so
    the arrays are left out of that pass and written by ``_write_array``
    with one C-encoder call per array."""
    arrays = []

    def slot(a):
        arrays.append(a)
        return "\0"  # no string of a payload holds a NUL

    head, *tails = json.dumps(payload, indent=2, default=slot).split(json.dumps("\0"))
    out.write(head)
    for a, tail, before in zip(arrays, tails, [head, *tails]):
        line = before[before.rfind("\n") + 1:]
        _write_array(a, out, line[: len(line) - len(line.lstrip(" "))])
        out.write(tail)
    out.write("\n")


def _write_array(a, out, pad: str) -> None:
    """``a`` as json's ``indent=2`` layout writes ``a.tolist()`` on a
    line indented by ``pad``.  Entries repeat (a resistance matrix is
    symmetric, and a web's automorphisms equate many more), so one
    C-encoder call encodes each distinct bit pattern (-0.0 apart from 0.0)
    once, and its text is laid out wherever that pattern occurs."""
    keys, inverse = np.unique(a.ravel().view(f"u{a.itemsize}"), return_inverse=True)
    tokens = np.array(json.dumps(keys.view(a.dtype).tolist())[1:-1].split(", "), dtype=object)
    _write_tokens(tokens[inverse].reshape(a.shape), out, pad)


def _write_tokens(tokens, out, pad: str) -> None:
    inner = pad + "  "
    if len(tokens) == 0:
        out.write("[]")
    elif tokens.ndim == 1:
        out.write(f"[\n{inner}" + (",\n" + inner).join(tokens.tolist()) + f"\n{pad}]")
    else:
        for i, sub in enumerate(tokens):
            out.write(("," if i else "[") + "\n" + inner)
            _write_tokens(sub, out, inner)
        out.write(f"\n{pad}]")


# ---- subcommands ------------------------------------------------------


def cmd_triangulate(args, out) -> int:
    g = _load_graph(args)
    tri = q_triangulate(g, args.q)
    r = tri.result
    out.write(f"# R_{args.q}(G): {r.n} nodes, {r.m} edges\n")
    out.write(format_edge_list(r))
    out.write("# provenance: new_node generator_edge copy\n")
    for x in tri.new_nodes:
        e, f = new_node_generator(g.n, g.m, tri.q, x)
        out.write(f"{x} {e} {f}\n")
    return EXIT_OK


def cmd_metrics(args, out) -> int:
    g = _load_graph(args)
    oracle_report = compute_metrics(g, "oracle")
    if args.format == "csv":  # the oracle matrices alone
        for name in ("hitting", "resistance"):
            out.write(f"# {name}\n")
            w = csv.writer(out)
            for row in getattr(oracle_report, name):
                w.writerow([_f12(x) for x in row])
        return EXIT_OK
    spectral_report = compute_metrics(g, "spectral")
    max_dev = max(
        np.abs(spectral_report.hitting - oracle_report.hitting).max(),
        np.abs(spectral_report.resistance - oracle_report.resistance).max(),
        abs(spectral_report.kemeny - oracle_report.kemeny),
    )
    foster = sum(oracle_report.resistance[i - 1, j - 1] for i, j in g.edges)
    if args.format == "json":
        payload = {
            "n": g.n,
            "m": g.m,
            "routes": {},
            "max_route_deviation": float(max_dev),
            "foster_edge_sum": float(foster),
        }
        for route, rep in (("spectral", spectral_report), ("oracle", oracle_report)):
            payload["routes"][route] = {
                name: getattr(rep, name) for name in (*INDICES, "hitting", "resistance")
            }
        _write_json(payload, out)
    else:
        out.write(f"graph: n={g.n} m={g.m}\n")
        for route, rep in (("spectral", spectral_report), ("oracle", oracle_report)):
            values = "  ".join(f"{name} {_f12(getattr(rep, name))}" for name in INDICES)
            out.write(f"{route:>8}: {values}\n")
        out.write(f"max spectral/oracle deviation: {_f12(max_dev)}\n")
        out.write(f"foster check: sum over edges r = {_f12(foster)}\n")
    return EXIT_OK


def cmd_spectrum(args, out) -> int:
    g = _load_graph(args)
    spec = eigendecompose(g)
    if args.q is not None:
        eigenvalues, branches = lift_eigenvalues(spec, args.q)
        payload = {"eigenvalues": eigenvalues, "branch": list(branches)}
    else:
        payload = {
            "eigenvalues": spec.eigenvalues,
            "branch": ["input"] * g.n,
        }
    _write_json(payload, out)
    return EXIT_OK


def cmd_transfer(args, out) -> int:
    checks = verify.transfer_checks(_load_graph(args), args.q)
    out.write(f"{'quantity':<20}{'transfer':>20}{'oracle':>20}{'|rel dev|':>12}\n")
    for c in checks:
        out.write(f"{c.kind:<20}{_f12(c.got):>20}{_f12(c.want):>20}{c.deviation:>12.3e}\n")
    out.write(f"max |deviation| (relative): {max(c.deviation for c in checks):.3e}\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    corpus = {f: getattr(args, f) for f in _CORPUS_HELP if getattr(args, f) is not None}
    if args.graph is None and args.input is None:
        if args.q is not None:
            raise CliInputError("--q applies only with --graph or --input; "
                                "the corpus cycles q over 1..--qmax")
        results = verify.run_all(**corpus)
    elif corpus:
        flags = ", ".join(f"--{f}" for f in corpus)
        raise CliInputError(f"{flags}: corpus flags apply only without --graph or --input")
    else:
        results = verify.run_single(_load_graph(args), 1 if args.q is None else args.q)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        out.write(
            f"[{status}] {r.name}: max deviation {r.max_deviation:.3e} "
            f"(tol {r.tolerance:.1e}, {len(r.checks)} checks)\n"
        )
        if not r.passed:
            out.write(f"       worst case: {r.worst_case}\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def cmd_pseudofractal(args, out) -> int:
    rows = []
    for k in range(check_k(args.kmax) + 1):
        try:
            values = [float(x) for x in pseudofractal_metrics(args.q, k)]
        except OverflowError:
            raise CliInputError(
                f"values at k={k} exceed the float range; use --kmax {k - 1} or less"
            ) from None
        rows.append((k, *predicted_counts(3, 3, args.q, k), *values))
    names = ("k", "n", "m", *PSEUDOFRACTAL_ORDER)
    widths = (3, 10, 10) + (18,) * len(PSEUDOFRACTAL_ORDER)
    if args.format == "json":
        _write_json([dict(zip(names, row)) for row in rows], out)
        return EXIT_OK
    cells = [names] + [(*row[:3], *map(_f12, row[3:])) for row in rows]
    if args.format == "csv":
        csv.writer(out).writerows(cells)
    else:
        for row in cells:
            out.write("".join(f"{x:>{w}}" for x, w in zip(row, widths)) + "\n")
    return EXIT_OK


# ---- argument parsing -------------------------------------------------


#: verify's corpus flags; their defaults are those of verify.run_all
_CORPUS_HELP = {"seed": "corpus seed", "trials": "random graphs in the corpus",
                "nmax": "most nodes of a corpus graph", "qmax": "q cycles over 1..QMAX"}


def _add_graph_args(p, required=True):
    source = p.add_mutually_exclusive_group(required=required)
    source.add_argument("--graph", help="builtin: k2, k3, cycle:N, path:N, star:N")
    source.add_argument("--input", help="edge-list file ('n m' header, then 'i j' lines)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trispectra",
        description="q-triangulation graphs: closed-form transfers vs numerical oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangulate", help="construct R_q(G) with provenance")
    _add_graph_args(p)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("metrics", help="walk/resistance metrics, both routes")
    _add_graph_args(p)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("spectrum", help="spectrum of P, or of P(R_q(G)) via the lift")
    _add_graph_args(p)
    p.add_argument("--q", type=int, help="lift to R_q(G); q >= 1")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transfer", help="transfer formulas vs oracle, side by side")
    _add_graph_args(p)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    _add_graph_args(p, required=False)
    p.add_argument("--q", type=int, help="q for --graph/--input (default 1)")
    for flag, param in inspect.signature(verify.run_all).parameters.items():
        text = f"{_CORPUS_HELP[flag]} (default {param.default})"
        p.add_argument(f"--{flag}", type=int, help=text)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pseudofractal", help="table of pseudofractal-web quantities")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_pseudofractal)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (CliInputError, EdgeListParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceFailure, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TrispectraError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
