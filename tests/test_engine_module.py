"""The engine module holds only the engine.

Every top-level name that qfgraph/decision.py defines must be read by the
engine itself, the CLI or the fixtures.  A name that only the sweeps read is
an oracle, and belongs in qfgraph/sweeps.py beside the sweep that uses it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "qfgraph"
USERS = ("decision.py", "cli.py", "fixtures.py")


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


def test_every_engine_name_is_read_outside_the_sweeps():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in SRC.glob("*.py")}
    engine = modules["decision.py"].body
    defined = set().union(*map(_defined, engine))
    assert {"alt_line_cut_simple", "decide", "PRIME"} <= defined
    read = set().union(*(_read(modules[name]) for name in USERS[1:]))
    for stmt in engine:  # a definition reading its own name does not count
        read |= _read(stmt) - _defined(stmt)
    unread = sorted(defined - read)
    assert not unread, f"decision.py defines names no engine path reads: {unread}"
