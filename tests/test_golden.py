"""Golden corpus: every command's bytes on the pinned inputs are unchanged,
and so are the argument parser's on the pinned argument lists.

tests/golden/cli_outputs.jsonl holds the inputs and a sha256 per command of
(exit code, stdout, stderr) through cli.main; tests/golden/regen.py writes it.
tests/golden/argv_outputs.jsonl holds the argument lists and a sha256 of
(outcome, stdout, stderr) through cli.parse_argv; tests/golden/regen_argv.py
writes it.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
_spec = importlib.util.spec_from_file_location("golden_regen_argv", GOLDEN / "regen_argv.py")
regen_argv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_argv)


def test_cli_outputs_match_golden_corpus(tmp_path):
    'fixtures, tree and wide corpora, stars and nested strings: five commands each'
    path = str(tmp_path / "input.json")
    lines = (GOLDEN / "cli_outputs.jsonl").read_text().splitlines()
    changed = []
    for line in lines:
        item = json.loads(line)
        got = regen.digests(item["rank"], item["factors"], path)
        changed += [(item["name"], command) for command in regen.COMMANDS
                    if got[command] != item["sha256"][command]]
    assert len(lines) > 500 and not changed, changed[:20]


def test_parser_outputs_match_pinned_bytes():
    'values, exit codes, usage errors and help texts on the argv corpus of test_cli_argv'
    lines = (GOLDEN / "argv_outputs.jsonl").read_text().splitlines()
    pinned = {tuple(item["argv"]): item["sha256"] for item in map(json.loads, lines)}
    assert list(pinned) == list(map(tuple, regen_argv.argvs()))
    changed = [argv for argv, digest in pinned.items() if regen_argv.digest(argv) != digest]
    assert len(pinned) > 800 and not changed, changed[:20]
