"""The README's examples run and say what they print.

The two `python` blocks of the "Library" section run as written, and each
commented line must show the value its comment states.  Each `qfgraph` line
of the "CLI" section runs through `cli.main` on the section's JSON input.
"""

import re
import shlex
from pathlib import Path

from qfgraph.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_readme_library_blocks_show_their_values():
    'the verdict is unknown and real, r_set is (5, 7) and holds 5, two dominant l-weights'
    library = blocks(section("Library"), "python")
    assert len(library) == 2
    namespace, shown = {}, []
    for block in library:
        exec(block, namespace)
        for line in block.splitlines():
            code, _, comment = (part.strip() for part in line.partition("#"))
            if not comment:
                continue
            if code.startswith("verdict = "):
                v = namespace["verdict"]
                assert (v.primality, v.reality) == ("unknown", "real")
                assert comment == f'primality "{v.primality}", reality "{v.reality}"'
            else:
                shown.append(eval(code, namespace))
                assert comment.startswith(repr(shown[-1])), line
    assert shown == [(5, 7), True, 2]


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    'every qfgraph line of the CLI section exits 0 on its JSON input; the first rset prints {5, 7}'
    cli = section("CLI")
    (tmp_path / "input.json").write_text(blocks(cli, "json")[0])
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0] for block in blocks(cli, "sh")
             for line in block.splitlines() if line.startswith("qfgraph ")]
    assert len(lines) == 10
    for k, line in enumerate(lines):
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if k == 0:
            assert argv[0] == "rset" and out == "{5, 7}\n"
    assert (tmp_path / "out.dot").read_text().startswith("digraph qfactorization {")
