"""Line-coverage probe for src/qfgraph, on the standard library alone.

Runs the tier-1 tests in this process under sys.settrace, tracing only frames
whose code lives in src/qfgraph, then prints each statement of src/qfgraph
that never ran as `path:line: source` and exits with pytest's exit code.
Code that runs only in a child process, such as `python -m qfgraph.cli`, is
not traced, so it is listed.  test_hundred_thousand_factors is deselected:
its 10 s alarm is set for untraced runs.  Arguments, if any, go to pytest
in place of the tests directory.

    PYTHONPATH=src python tests/line_coverage.py

The name does not match test_*.py, so pytest does not collect this file.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfgraph"


def statement_lines(tree: ast.Module) -> set[int]:
    """The first line of each statement that compiles to code: docstrings do not."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings}


def main() -> int:
    prefix = str(PACKAGE) + "/"
    ran = defaultdict(set)  # file name -> line numbers that ran

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = ran[path]

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.settrace(trace)
    try:
        code = pytest.main([
            "-q", "--rootdir", str(ROOT),
            "--deselect", "tests/test_cli_fuzz.py::test_hundred_thousand_factors",
            *(sys.argv[1:] or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for line in sorted(statement_lines(ast.parse(source)) - ran[str(path)]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"statements of src/qfgraph that never ran: {missed}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
