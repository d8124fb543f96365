"""Each decision has one owner: ``errors.is_integer`` is the package's
only integer test, so ``numbers.Integral`` is named only in errors.py;
and rank B = n - [G bipartite] is read from ``is_bipartite``'s flag, so
no module defines ``_incidence_rank`` or subscripts or unpacks what
``is_bipartite`` returns.  The lift has one code path for both parities:
the only conditional in spectral.py is ``_gate``'s, and ``_lifted_values``
reads G as numbers (eigenvalues, n, m, bipartite, q), not as a Spectrum.
The paper's iterated coefficients have one owner, the term table that
iterated.py derives from the transfers: the iterated forms, the
pseudofractal values and rows and ``predicted_counts`` read it, the
hand-copied ``_powers`` and ``_pseudofractal_numerators`` are gone, and
``cmd_pseudofractal`` builds no row from the exact form or the counts.
Each failure has one class, raised where it is decided: no module raises
ValueError or OverflowError or names the deleted SingularSystemError,
and cli.py catches neither, so it rewrites no library error.  The
transfers have one guard, which owns the check of q and the float range:
only it calls ``check_q`` in transfer.py, it wraps every public function
there, and a transfer built from others calls their ``__wrapped__``
bodies.  The same guard serves the iterated forms: src/ defines one
``_guarded`` and no ``_float_range``, every public function of
iterated.py but the row generator carries it, and no other function
there checks q or k.  The CLI keeps no second path: cli.py does no
arithmetic of its own on the routes (no ``abs`` or ``sum``), takes the
transfer rows from ``suite_transfer`` and the provenance rows from
``TriangulationResult.provenance`` without a per-node loop, and src/ sums
Foster's edge resistances in ``verify.foster_sum`` alone.  Graphs the
package makes are built as endpoint arrays: ``build_graph`` validates edge
lists from outside, so in src/ only ``parse_edge_list`` calls it, and
``complete_graph`` for the messages of a size below 2."""

import ast
from pathlib import Path

import trispectra
from trispectra import cli, iterated, spectral, transfer, triangulation, verify


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


_LIFTED_PARAMS = ["eigenvalues", "n", "m", "bipartite", "q"]


def _scan_spectral(source: str) -> list:
    """The findings in ``source`` for spectral.py: "if in <owner>" for
    each ``if`` statement, conditional expression or comprehension filter
    outside ``_gate``, <owner> the top-level definition around it, then
    "_lifted_values <params>" unless exactly one top-level _lifted_values
    takes exactly _LIFTED_PARAMS."""
    tree = ast.parse(source)
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if owner != "_gate" and (isinstance(node, (ast.If, ast.IfExp))
                                     or isinstance(node, ast.comprehension) and node.ifs):
                found.append(f"if in {owner}")
    params = [[a.arg for a in (*f.args.posonlyargs, *f.args.args, *f.args.kwonlyargs)]
              for f in tree.body
              if isinstance(f, ast.FunctionDef) and f.name == "_lifted_values"]
    if params != [_LIFTED_PARAMS]:
        found.append(f"_lifted_values {params}")
    return found


def test_spectral_guard_sees_each_finding():
    lifted = "def _lifted_values(eigenvalues, n, m, bipartite, q):\n    pass\n"
    gate = "def _gate(r, limit):\n    if not r <= limit:\n        raise ValueError\n"
    assert _scan_spectral(gate + lifted) == []
    assert _scan_spectral("def f(x):\n    if x:\n        pass\n" + lifted) == ["if in f"]
    assert _scan_spectral("def f(x):\n    return 1 if x else 0\n" + lifted) == ["if in f"]
    assert _scan_spectral("def f(x):\n    return [y for y in x if y]\n" + lifted) == ["if in f"]
    assert _scan_spectral("def f(x):\n    return [y for y in x]\n" + lifted) == []
    assert _scan_spectral("z = 0 if a else 1\n" + lifted) == ["if in <module>"]
    assert _scan_spectral("class S:\n    def f(self, x):\n        if x:\n            pass\n"
                          + lifted) == ["if in S"]
    assert _scan_spectral("def _lifted_values(spec, q):\n    pass\n") == [
        "_lifted_values [['spec', 'q']]",
    ]
    assert _scan_spectral("def _lifted_values(eigenvalues, n, m, q, *, bipartite):\n"
                          "    pass\n") == [
        "_lifted_values [['eigenvalues', 'n', 'm', 'q', 'bipartite']]",
    ]
    assert _scan_spectral("") == ["_lifted_values []"]


def test_lift_has_one_code_path_for_both_parities():
    assert _scan_spectral(Path(spectral.__file__).read_text()) == []


#: what reads the term table, each by a call of one of _TABLE
_READERS = ("iterated_kemeny", "iterated_additive", "iterated_kirchhoff",
            "pseudofractal_metrics", "pseudofractal_rows", "predicted_counts")
_TABLE = ("_value", "_terms")
#: the hand-copied coefficients that the table replaced
_DELETED = ("_powers", "_pseudofractal_numerators")
_NOT_PER_ROW = ("pseudofractal_metrics", "predicted_counts")


def _scan_table(source: str) -> list:
    """The findings in ``source`` for the term table: "<name> defined" for
    each definition of a _DELETED name, "cmd calls <name>" for each call of
    a _NOT_PER_ROW name in cmd_pseudofractal, then "<name> without the
    table" for each _READERS name that no top-level definition of that
    name calls a _TABLE function in."""
    tree = ast.parse(source)
    calls = {f.name: {_name(node.func) for node in ast.walk(f) if isinstance(node, ast.Call)}
             for f in tree.body if isinstance(f, ast.FunctionDef)}
    found = [f"{node.name} defined" for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in _DELETED]
    found += [f"cmd calls {name}" for name in _NOT_PER_ROW
              if name in calls.get("cmd_pseudofractal", ())]
    return found + [f"{name} without the table" for name in _READERS
                    if not calls.get(name, set()) & set(_TABLE)]


def test_table_guard_sees_each_finding():
    readers = "".join(f"def {name}(q, k):\n    return _value(q, k)\n" for name in _READERS[:-1])
    counts = "def predicted_counts(n, m, q, k):\n    return iterated._terms(n, m)\n"
    rows = "def cmd_pseudofractal(args, out):\n    rows = list(pseudofractal_rows(args.q, 3))\n"
    assert _scan_table(readers + counts + rows) == []
    assert _scan_table(
        readers + counts + "def cmd_pseudofractal(args, out):\n"
        "    return [(*predicted_counts(3, 3, 1, k), *pseudofractal_metrics(1, k)) for k in ks]\n"
    ) == ["cmd calls pseudofractal_metrics", "cmd calls predicted_counts"]
    assert _scan_table(
        readers + "def _powers(q, k):\n    pass\n"
        "def predicted_counts(n, m, q, k):\n    return n + m * ((2 * q + 1) ** k - 1) // 2\n"
    ) == ["_powers defined", "predicted_counts without the table"]
    assert _scan_table("def f():\n    def _pseudofractal_numerators(q, k, t, p):\n"
                       "        pass\n    return _value(1, 1)\n") == [
        "_pseudofractal_numerators defined",
        *(f"{name} without the table" for name in _READERS),
    ]


def test_term_table_has_one_owner():
    source = "".join(Path(module.__file__).read_text()
                     for module in (cli, iterated, triangulation))
    assert _scan_table(source) == []


_RAW = ("ValueError", "OverflowError")


def _scan_failures(source: str) -> list:
    """The findings in ``source`` in ``ast.walk`` order: "SingularSystemError"
    for each definition, import, name or attribute lookup of it, "raise
    <name>" for each raise of a _RAW class or an instance of one, and
    "except <name>" for each except clause that names a _RAW class, alone
    or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.alias) and node.name == "SingularSystemError"
                or isinstance(node, ast.ClassDef) and node.name == "SingularSystemError"
                or isinstance(node, (ast.Name, ast.Attribute))
                and _name(node) == "SingularSystemError"):
            found.append("SingularSystemError")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc) in _RAW:
                found.append(f"raise {_name(exc)}")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [f"except {_name(t)}" for t in types if _name(t) in _RAW]
    return found


def test_failure_guard_sees_each_finding():
    assert _scan_failures("class SingularSystemError(TrispectraError):\n    pass") == [
        "SingularSystemError",
    ]
    assert _scan_failures("from .errors import SingularSystemError") == ["SingularSystemError"]
    assert _scan_failures("raise errors.SingularSystemError('x')") == ["SingularSystemError"]
    assert _scan_failures("raise ValueError('x')") == ["raise ValueError"]
    assert _scan_failures("raise OverflowError") == ["raise OverflowError"]
    assert _scan_failures("raise GraphError('x') from None") == []
    assert _scan_failures("raise") == []
    assert _scan_failures("try:\n    f()\nexcept ValueError as exc:\n    pass") == [
        "except ValueError",
    ]
    assert _scan_failures("try:\n    f()\nexcept (TypeError, OverflowError):\n    pass") == [
        "except OverflowError",
    ]
    assert _scan_failures("try:\n    f()\nexcept (OSError, KeyError):\n    pass\n"
                          "except:\n    pass") == []


def test_each_failure_has_one_class_and_one_raise_site():
    modules = sorted(Path(trispectra.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.stem}: {finding}" for path in modules
             for finding in _scan_failures(path.read_text())
             if path.stem == "cli" or not finding.startswith("except")]
    assert found == []


_GUARD = "_guarded"
#: its value is a record, which the guard's float test cannot read, so it
#: calls the guarded scalar transfers and each field is checked by its own
_RECORD = "transferred_summary"


def _scan_transfer(source: str) -> list:
    """The findings in ``source`` for transfer.py: "<name> unguarded" for
    each public top-level function without the _GUARD decorator, then in
    ``ast.walk`` order of each top-level definition <owner>: "check_q in
    <owner>" for each call of check_q outside _GUARD, and "<owner> calls
    <name>" for each call of a guarded function by its guarded name
    outside _RECORD; last "no check_q in _GUARD" unless _GUARD calls it."""
    tree = ast.parse(source)
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    guarded = {f.name for f in functions if _GUARD in map(_name, f.decorator_list)}
    found = [f"{f.name} unguarded" for f in functions
             if not f.name.startswith("_") and f.name not in guarded]
    checked = set()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            called = _name(node.func) if isinstance(node, ast.Call) else None
            if called == "check_q":
                checked.add(owner)
                if owner != _GUARD:
                    found.append(f"check_q in {owner}")
            elif called in guarded and owner != _RECORD:
                found.append(f"{owner} calls {called}")
    return found + [f"no check_q in {_GUARD}"] * (_GUARD not in checked)


def test_transfer_guard_sees_each_finding():
    guard = "def _guarded(f):\n    def wrapper(q, s):\n        return f(check_q(q), s)\n"
    pair = "@_guarded\ndef pair(q, s):\n    return q\n"
    assert _scan_transfer(guard + pair + "@_guarded\ndef total(q, s):\n"
                          "    return pair.__wrapped__(q, s) + _helper(q)\n") == []
    assert _scan_transfer(guard + pair + "@_guarded\ndef total(q, s):\n"
                          "    return pair(q, s)\n") == ["total calls pair"]
    assert _scan_transfer(guard + pair + "@_guarded\ndef transferred_summary(q, s):\n"
                          "    return Summary(pair(q, s))\n") == []
    assert _scan_transfer(guard + "def pair(q, s):\n    q = errors.check_q(q)\n") == [
        "pair unguarded", "check_q in pair",
    ]
    assert _scan_transfer(guard + "@_float_range\ndef pair(q, s):\n    return q\n"
                          "def _helper(q):\n    return q\n") == ["pair unguarded"]
    assert _scan_transfer(guard + "Q = check_q(1)\n") == ["check_q in <module>"]
    assert _scan_transfer("def _guarded(f):\n    return f\n" + pair) == ["no check_q in _guarded"]


def test_transfers_have_one_guard():
    assert _scan_transfer(Path(transfer.__file__).read_text()) == []


#: a generator overflows while it is iterated, after any decorator has
#: returned, and its message names the row's k, so it checks its own
_ROWS = "pseudofractal_rows"


def _scan_iterated(source: str) -> list:
    """The findings in ``source`` for iterated.py: "<name> unguarded" for
    each public top-level function but _ROWS without the _GUARD decorator,
    then in ``ast.walk`` order of each top-level definition <owner>:
    "_float_range" for each definition, name or attribute lookup of it,
    and "<check> in <owner>" for each call of check_q or check_k outside
    _ROWS."""
    tree = ast.parse(source)
    found = [f"{f.name} unguarded" for f in tree.body
             if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
             and f.name != _ROWS and _GUARD not in map(_name, f.decorator_list)]
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.FunctionDef) and node.name == "_float_range"
                    or isinstance(node, (ast.Name, ast.Attribute))
                    and _name(node) == "_float_range"):
                found.append("_float_range")
            elif (isinstance(node, ast.Call) and _name(node.func) in ("check_q", "check_k")
                  and owner != _ROWS):
                found.append(f"{_name(node.func)} in {owner}")
    return found


def test_iterated_guard_sees_each_finding():
    form = "@_guarded\ndef iterated_kemeny(summary, q, k):\n    return q\n"
    rows = "def pseudofractal_rows(q, kmax):\n    kmax, q = check_k(kmax), check_q(q)\n"
    assert _scan_iterated("from .transfer import _guarded\n" + form + rows) == []
    assert _scan_iterated("@_float_range\ndef iterated_kemeny(summary, q, k):\n"
                          "    return q\n") == ["iterated_kemeny unguarded", "_float_range"]
    assert _scan_iterated("def _float_range(f):\n    return f\n" + form) == ["_float_range"]
    assert _scan_iterated("@transfer._guarded\ndef f(q, k):\n    return q\n"
                          "def _helper(q):\n    return q\n") == []
    assert _scan_iterated("def pseudofractal_metrics(q, k):\n"
                          "    q, k = check_q(q), errors.check_k(k)\n") == [
        "pseudofractal_metrics unguarded",
        "check_q in pseudofractal_metrics", "check_k in pseudofractal_metrics",
    ]
    assert _scan_iterated(form + "K = check_k(3)\n") == ["check_k in <module>"]


def test_every_closed_form_has_the_one_guard():
    assert _scan_iterated(Path(iterated.__file__).read_text()) == []
    modules = sorted(Path(trispectra.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    defined = [f"{path.stem}.{node.name}" for path in modules
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in (_GUARD, "_float_range")]
    assert defined == ["transfer._guarded"]


#: what cli.py leaves to the library: the routes' and Foster's arithmetic
#: (``np.abs`` is an "abs" call) and the per-node provenance and transfer rows
_CLI_CALLS = ("abs", "sum", "new_node_generator", "transfer_checks")


def _scan_cli(source: str) -> list:
    """The findings in ``source`` for cli.py in ``ast.walk`` order: "calls
    <name>" for each call of a _CLI_CALLS name, and "loop in <owner>" for
    each for loop or comprehension in cmd_triangulate."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _name(node.func) in _CLI_CALLS:
                found.append(f"calls {_name(node.func)}")
            elif owner == "cmd_triangulate" and isinstance(node, (ast.For, ast.comprehension)):
                found.append(f"loop in {owner}")
    return found


def test_cli_guard_sees_each_finding():
    assert _scan_cli("d = max(np.abs(a - b).max(), abs(k - l))") == ["calls abs", "calls abs"]
    assert _scan_cli("def cmd_metrics(args, out):\n    f = sum(r[tuple(g._ends.T)])\n") == [
        "calls sum",
    ]
    assert _scan_cli("def cmd_triangulate(args, out):\n    for x in tri.provenance:\n"
                     "        e, f = new_node_generator(g.n, g.m, q, x)\n") == [
        "loop in cmd_triangulate", "calls new_node_generator",
    ]
    assert _scan_cli("def cmd_triangulate(args, out):\n"
                     "    out.write(''.join(f'{x}' for x in xs))\n") == ["loop in cmd_triangulate"]
    assert _scan_cli("def cmd_transfer(args, out):\n"
                     "    for c in verify.transfer_checks(g, q):\n        pass\n") == [
        "calls transfer_checks",
    ]
    assert _scan_cli("def cmd_transfer(args, out):\n    r = verify.suite_transfer(cases, tol)\n"
                     "    for c in r.checks:\n        pass\n"
                     "    return max(c.deviation for c in r.checks)\n") == []


def _scan_foster(source: str) -> list:
    """The top-level definitions in ``source``, in order, that subscript a
    resistance matrix (a name or attribute ``res`` or ``resistance``) with
    an index that reads ``_ends``: each is a sum of Foster's theorem."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Subscript) and _name(node.value) in ("res", "resistance")
                    and any(_name(sub) == "_ends" for sub in ast.walk(node.slice))):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_foster_guard_sees_each_finding():
    assert _scan_foster("def cmd_metrics(args, out):\n"
                        "    f = sum(report.resistance[tuple(g._ends.T)])\n") == ["cmd_metrics"]
    assert _scan_foster("def suite(cases):\n"
                        "    f = res[g._ends[:, 0], g._ends[:, 1]].sum()\n") == ["suite"]
    assert _scan_foster("def adjacency(g):\n    a[g._ends[:, 0], g._ends[:, 1]] = 1\n"
                        "def one(g):\n    return res[0, 1]\n") == []


def test_cli_keeps_no_second_path():
    assert _scan_cli(Path(cli.__file__).read_text()) == []
    modules = sorted(Path(trispectra.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.stem}.{owner}" for path in modules
             for owner in _scan_foster(path.read_text())]
    assert found == ["verify.foster_sum"]
    assert not hasattr(verify, "transfer_checks")
    assert not hasattr(triangulation.TriangulationResult, "new_nodes")


#: the callers of build_graph in src/: the parser of outside edge lists, and
#: complete_graph for build_graph's messages at n < 2
_BUILD_GRAPH_CALLERS = ("graph.parse_edge_list", "graph.complete_graph")


def _scan_build_graph(source: str) -> list:
    """The top-level definitions in ``source``, in order, with a call of
    build_graph, one entry per call."""
    return [getattr(top, "name", "<module>") for top in ast.parse(source).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and _name(node.func) == "build_graph"]


def test_build_graph_guard_sees_each_finding():
    assert _scan_build_graph("def path_graph(n):\n"
                             "    return build_graph(n, ((i, i + 1) for i in range(1, n)))\n") == [
        "path_graph",
    ]
    assert _scan_build_graph("def draw(rng):\n    try:\n        g = graph.build_graph(n, e)\n"
                             "    except DisconnectedError:\n        pass\n"
                             "K2 = build_graph(2, [(1, 2)])\n") == ["draw", "<module>"]
    assert _scan_build_graph("def path_graph(n):\n    return Graph(n, ends)\n"
                             "def f(build_graph):\n    return build_graph\n") == []


def test_graphs_the_package_makes_skip_build_graph():
    modules = sorted(Path(trispectra.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.stem}.{owner}" for path in modules
             for owner in _scan_build_graph(path.read_text())]
    assert sorted(found) == sorted(_BUILD_GRAPH_CALLERS)
