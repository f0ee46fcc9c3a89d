"""The engine modules hold only the engine.

Every top-level name that qfgraph/decision.py defines must be read by the
engine itself, the CLI or the fixtures.  A name that only the sweeps read is
an oracle, and belongs in qfgraph/sweeps.py beside the sweep that uses it.

The same holds for every top-level name in qfgraph/redsets.py and every
method of DynkinA, read anywhere in the engine modules, the CLI or the
fixtures.  Interval, drinfeld.py and graph.py are left out: the test-side
references are written over Interval's helpers, and the benchmark tracer
wraps drinfeld and graph names that only the sweeps call.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "qfgraph"
USERS = ("decision.py", "cli.py", "fixtures.py")
ENGINE = ("dynkin.py", "drinfeld.py", "redsets.py", "graph.py", "decision.py")


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in SRC.glob("*.py")}


def _defined(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read(tree) -> set[str]:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _attributes_read(tree) -> Counter:
    return Counter(n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _unread_names(modules: dict, name: str, users) -> list[str]:
    """Top-level names of module `name` that no other statement in users reads."""
    body = modules[name].body
    defined = set().union(*map(_defined, body))
    read = set().union(*(_read(modules[u]) for u in users if u != name))
    for stmt in body:  # a definition reading its own name does not count
        read |= _read(stmt) - _defined(stmt)
    return sorted(defined - read)


def test_every_engine_name_is_read_outside_the_sweeps():
    modules = _modules()
    defined = set().union(*map(_defined, modules["decision.py"].body))
    assert {"alt_line_cut_simple", "decide", "PRIME"} <= defined
    unread = _unread_names(modules, "decision.py", USERS)
    assert not unread, f"decision.py defines names no engine path reads: {unread}"


def test_redsets_and_dynkin_define_only_what_the_engine_reads():
    modules = _modules()
    users = ENGINE + USERS[1:]
    unread = _unread_names(modules, "redsets.py", users)
    assert not unread, f"redsets.py defines names no engine path reads: {unread}"

    diagram = next(s for s in modules["dynkin.py"].body
                   if isinstance(s, ast.ClassDef) and s.name == "DynkinA")
    methods = [s for s in diagram.body if isinstance(s, ast.FunctionDef)
               and not (s.name.startswith("__") and s.name.endswith("__"))]
    assert {"check_node", "check_interval"} <= {m.name for m in methods}
    read = sum((_attributes_read(modules[u]) for u in users), Counter())
    unread = sorted(m.name for m in methods  # a method calling itself does not count
                    if read[m.name] == _attributes_read(m)[m.name])
    assert not unread, f"DynkinA has methods no engine path reads: {unread}"
