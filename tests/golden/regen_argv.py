#!/usr/bin/env python3
"""Regenerate the pinned bytes of the argument parser.

    PYTHONPATH=src python3 tests/golden/regen_argv.py tests/golden/argv_outputs.jsonl

Each line of the output holds one argument list and the sha256 of the
(outcome, stdout, stderr) that cli.parse_argv gives on it, where the outcome
is the command and its values with their types, or the exit code.  The
argument lists are those of tests/test_cli_argv.py: its corpus(), PINNED and
DASHES.  The ones that carry -h or --help pin every help text.

tests/test_golden.py checks every line on each run and imports digest() and
argvs() from this file.  Regenerate only in a change that alters the
parser's output bytes on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def argvs() -> list[list[str]]:
    """Every argument list to pin, each once, in corpus order."""
    sys.path.insert(0, TESTS)
    from test_cli_argv import DASHES, PINNED, corpus

    return [list(argv) for argv in dict.fromkeys(
        [tuple(argv) for argv in corpus()] + list(PINNED) + list(DASHES))]


def digest(argv: list[str]) -> str:
    """sha256 of (outcome, stdout, stderr) of parse_argv on argv."""
    from qfgraph.cli import parse_argv

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            name, args = parse_argv(list(argv))
        outcome = [name, {k: [type(v).__name__, v] for k, v in vars(args).items()}]
    except SystemExit as exc:
        outcome = exc.code
    blob = json.dumps([outcome, out.getvalue(), err.getvalue()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: regen_argv.py OUTPUT.jsonl", file=sys.stderr)
        return 1
    with open(argv[0], "w", encoding="utf-8") as sink:
        for args in argvs():
            line = {"argv": args, "sha256": digest(args)}
            sink.write(json.dumps(line, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
