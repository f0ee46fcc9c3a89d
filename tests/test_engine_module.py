"""Every name in src/qfgraph is read by src/qfgraph, and the engine by more
than the sweeps.

One guard covers every module: each top-level name and each non-dunder
method must be read by some src/ module; a definition reading its own name
does not count.  A top-level name is read as a bare name or through the bare
name of its module (`sweeps.CHECKS` reads sweeps.CHECKS, `args.CHECKS` reads
nothing), so the CLI can reach the lazily loaded modules by attribute.  Code
that only the tests read does not belong in src/.  Two exceptions count as
read: a name that the benchmark tracer wraps (the FUNCTIONS and METHODS of
perfbench/tracer.py, read from the tracer itself), and a method that
overrides an inherited one, such as argparse's `error`.

The same guard, with the sweeps and q-characters left out of the readers,
keeps the five engine modules to the engine: every name in dynkin.py,
redsets.py, drinfeld.py, graph.py and decision.py, Interval's methods
included, must be read outside sweeps.py and qchar.py.  A name that only
the sweeps read is an oracle, and belongs in qfgraph/sweeps.py beside the
sweep that uses it.  Only the names the tracer wraps are exempt.

Every name the tracer wraps must also resolve in qfgraph, so deleting one
fails here and not only in the traced benchmark run.  The tracer finds the
lazily loaded modules after a bare `import qfgraph.cli`, and leaves the
engine functions as it found them.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import qfgraph.dynkin
import qfgraph.sweeps

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "qfgraph"
ORACLES = ("sweeps", "qchar")
ENGINE = ("dynkin", "redsets", "drinfeld", "graph", "decision")


def _tracer():
    """perfbench/tracer.py as a module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in SRC.glob("*.py")}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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


def _loads(tree) -> tuple[Counter, Counter]:
    """How often tree loads each name, and each attribute.  The names also
    count, as "name.attribute", each attribute loaded from a bare name."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs[n.attr] += 1
            if isinstance(n.value, ast.Name):
                names[f"{n.value.id}.{n.attr}"] += 1
    return names, attrs


def _unread(modules: dict, defining, readers) -> list[str]:
    """Top-level names and non-dunder methods of the defining modules, as
    module.name or module.Class.method, that no other statement of the
    readers loads, bare or through the defining module's bare name.  The
    defining modules must be among the readers."""
    names, attrs = Counter(), Counter()
    for r in readers:
        n, a = _loads(modules[r])
        names, attrs = names + n, attrs + a
    unread = []
    for mod in defining:
        for stmt in modules[mod].body:
            own = _loads(stmt)[0]
            unread += [f"{mod}.{name}" for name in sorted(_defined(stmt))
                       if not _dunder(name) and names[name] + names[f"{mod}.{name}"]
                       == own[name] + own[f"{mod}.{name}"]]
            if not isinstance(stmt, ast.ClassDef):
                continue
            unread += [f"{mod}.{stmt.name}.{f.name}" for f in stmt.body
                       if isinstance(f, ast.FunctionDef) and not _dunder(f.name)
                       and attrs[f.name] == _loads(f)[1][f.name]]
    return unread


def _overrides(qualified: str) -> bool:
    """Is module.Class.method an override of a method its class inherits?"""
    parts = qualified.split(".")
    if len(parts) != 3:
        return False
    mod, cls, meth = parts
    bases = getattr(importlib.import_module(f"qfgraph.{mod}"), cls).__mro__[1:]
    return any(meth in vars(base) for base in bases)


def _traced() -> set[str]:
    """The names the tracer wraps, as module.name or module.Class.method."""
    tracer = _tracer()
    return {f"{m}.{name}" for m, name, _ in tracer.FUNCTIONS} | \
        {f"{m}.{cls}.{meth}" for m, cls, meth in tracer.METHODS}


def _unread_in_package(modules: dict) -> list[str]:
    traced = _traced()
    return [q for q in _unread(modules, modules, modules)
            if q not in traced and not _overrides(q)]


def test_every_name_in_the_package_is_read_by_the_package():
    unread = _unread_in_package(_modules())
    assert not unread, f"src/qfgraph defines names no src/ module reads: {unread}"


def test_the_guard_flags_a_method_only_the_tests_would_read():
    modules = _modules()
    lweight = next(s for s in modules["qchar"].body
                   if isinstance(s, ast.ClassDef) and s.name == "LWeight")
    lweight.body += ast.parse("@classmethod\ndef identity(cls):\n    return cls(())\n").body
    assert _unread_in_package(modules) == ["qchar.LWeight.identity"]


def test_the_guard_counts_a_read_through_the_defining_module_only():
    modules = _modules()
    modules["sweeps"].body += ast.parse("PROBE_CAP = 1").body
    modules["cli"].body += ast.parse("args.PROBE_CAP").body
    assert _unread_in_package(modules) == ["sweeps.PROBE_CAP"]
    modules["cli"].body += ast.parse("sweeps.PROBE_CAP").body
    assert _unread_in_package(modules) == []


def _unread_by_engine(modules: dict, defining) -> list[str]:
    readers = [m for m in modules if m not in ORACLES]
    traced = _traced()
    return [q for q in _unread(modules, defining, readers) if q not in traced]


def _class(modules: dict, module: str, name: str) -> ast.ClassDef:
    return next(s for s in modules[module].body
                if isinstance(s, ast.ClassDef) and s.name == name)


def _methods(cls: ast.ClassDef) -> set[str]:
    return {s.name for s in cls.body if isinstance(s, ast.FunctionDef)}


def test_every_engine_name_is_read_outside_the_sweeps():
    modules = _modules()
    for module, names in (("decision", {"alt_line_cut_simple", "decide", "PRIME"}),
                          ("graph", {"build_graph", "classify"}),
                          ("drinfeld", {"normalize", "dual"})):
        assert names <= set().union(*map(_defined, modules[module].body)), module
    unread = _unread_by_engine(modules, ("decision", "graph", "drinfeld"))
    assert not unread, f"engine names only the sweeps read: {unread}"


def test_redsets_and_dynkin_define_only_what_the_engine_reads():
    modules = _modules()
    assert "check_node" in _methods(_class(modules, "dynkin", "DynkinA"))
    assert {"reflect", "dual_coxeter"} <= _methods(_class(modules, "dynkin", "Interval"))
    unread = _unread_by_engine(modules, ("redsets", "dynkin"))
    assert not unread, f"redsets.py and dynkin.py names only the sweeps read: {unread}"


def test_the_engine_guard_flags_an_oracle_method_added_back():
    'a graph method that only the sweeps read passes the package guard, not this one'
    modules = _modules()
    _class(modules, "graph", "QFactGraph").body += ast.parse(
        "def arrow_dual(self):\n    return self\n").body
    modules["sweeps"].body += ast.parse("def _probe(g):\n    return g.arrow_dual()\n").body
    assert set(ENGINE) <= set(modules)
    assert "graph.QFactGraph.arrow_dual" not in _unread_in_package(modules)
    assert _unread_by_engine(modules, ENGINE) == ["graph.QFactGraph.arrow_dual"]


def test_every_name_the_tracer_wraps_resolves():
    tracer = _tracer()
    for mod, name, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"qfgraph.{mod}"), name, None)), \
            f"the tracer wraps qfgraph.{mod}.{name}, which is gone"
    for mod, cls, meth in tracer.METHODS:
        assert meth in vars(getattr(importlib.import_module(f"qfgraph.{mod}"), cls)), \
            f"the tracer wraps qfgraph.{mod}.{cls}.{meth}, which is gone"
    assert isinstance(qfgraph.sweeps.CHECKS, dict) and qfgraph.sweeps.CHECKS
    assert "__post_init__" in vars(qfgraph.dynkin.Interval)


def test_the_tracer_installs_after_a_bare_cli_import(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"rank": 3, "factors": [
        {"color": 1, "exponent": 1, "weight": 2}, {"color": 2, "exponent": 5, "weight": 1},
        {"color": 3, "exponent": 6, "weight": 3}, {"color": 3, "exponent": 8, "weight": 1}]}))
    probe = ("import contextlib, importlib.util, io, sys\n"
             "import qfgraph.cli\n"
             "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
             "tracer = importlib.util.module_from_spec(spec)\n"
             "spec.loader.exec_module(tracer)\n"
             "engine = [(qfgraph.redsets, 'r_set'), (qfgraph.graph, 'build_graph'),\n"
             "          (qfgraph.decision, 'is_prime')]\n"
             "originals = [getattr(m, name) for m, name in engine]\n"
             "t = tracer.Tracer()\n"
             "t.install()\n"
             "with contextlib.redirect_stdout(io.StringIO()), \\\n"
             "        contextlib.redirect_stderr(io.StringIO()):\n"
             "    code = qfgraph.cli.main(['prime', '--trace', sys.argv[2]])\n"
             "t.uninstall()\n"
             "print(code, t.total('graph.build_graph', 'calls'),\n"
             "      all(getattr(m, name) is f for (m, name), f in zip(engine, originals)))\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "perfbench" / "tracer.py"), str(path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1 True\n"
