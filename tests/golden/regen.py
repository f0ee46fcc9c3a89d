#!/usr/bin/env python3
"""Regenerate the golden corpus of CLI outputs.

    PYTHONPATH=src python3 tests/golden/regen.py tests/golden/cli_outputs.jsonl

Each line of the output holds one input (its name, rank and factors as
[color, exponent, weight] triples) and, for each command in COMMANDS, the
sha256 of the (exit code, stdout, stderr) that cli.main gives on it.  The
inputs are perfbench's tree_corpus(1), which starts with the bundled
fixtures, its wide_corpus(1), and stars and nested strings of 1 to 500 factors.

tests/test_golden.py checks every line on each run and imports digests()
from this file, never perfbench.  Regenerate only in a change that alters
output bytes on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

COMMANDS = ("prime --trace", "real --trace", "classify", "factorize", "graph")
SIZES = tuple(range(1, 31)) + (40, 50, 64, 80, 100, 128, 160, 200, 256, 320,
                               400, 500)


def digests(rank: int, factors: list, path: str) -> dict[str, str]:
    """sha256 of (exit code, stdout, stderr) per command, the input written
    to `path` first."""
    from qfgraph.cli import main

    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"rank": rank, "factors": [
            {"color": c, "exponent": e, "weight": w} for c, e, w in factors]},
            handle)
    hashes = {}
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split() + [path])
        blob = json.dumps([code, out.getvalue(), err.getvalue()])
        hashes[command] = hashlib.sha256(blob.encode()).hexdigest()
    return hashes


def inputs() -> list[tuple[str, int, list]]:
    """(name, rank, factors) of every golden input."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import corpus

    out = []
    for item in corpus.tree_corpus(1) + corpus.wide_corpus(1):  # fixtures first
        out.append((item["name"], item["rank"], [list(f) for f in item["factors"]]))
    for k in SIZES:
        out.append((f"star-{k}", 2, [[1, 3, 1]] + [[2, 0, 1]] * (k - 1)))
    for k in SIZES:
        rank = 1 + k % 6
        out.append((f"nested-{k}", rank,
                    [[1 + v % rank, 0, v + 1] for v in range(k)]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: regen.py OUTPUT.jsonl", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as work, \
            open(argv[0], "w", encoding="utf-8") as sink:
        path = os.path.join(work, "input.json")
        for name, rank, factors in inputs():
            line = {"name": name, "rank": rank, "factors": factors,
                    "sha256": digests(rank, factors, path)}
            sink.write(json.dumps(line, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
