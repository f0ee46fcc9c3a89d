"""The command table's parser against the argparse parser it replaced
(tests/argv_reference.py), on a generated argv corpus: on each argv both give
the same command and values, or both exit 1 on a usage error, or both exit 0
with the help."""

import contextlib
import io
import sys

import pytest

from argv_reference import make_parser
from qfgraph.cli import COMMANDS, parse_argv

REFERENCE = make_parser()

# The value given to an option of each type (a flag takes none), and the positional.
VALUE = {int: "2", str: "out.dot", bool: None}
INPUT = "in.json"


def _table(argv):
    name, args = parse_argv(argv)
    return name, {k: (type(v), v) for k, v in vars(args).items()}


def _argparse(argv):
    values = dict(vars(REFERENCE.parse_args(argv)))
    name = values.pop("command")
    assert values.pop("func") is COMMANDS[name].run
    return name, {k: (type(v), v) for k, v in values.items()}


def outcome(parse, argv):
    """(command, values), or the exit code, with the text checked."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(list(argv))
    except SystemExit as exc:
        if exc.code == 0:
            assert out.getvalue().startswith("usage: qfgraph"), argv
        else:
            assert err.getvalue().startswith("input error: qfgraph"), argv
            assert "\nusage: qfgraph" in err.getvalue(), argv
        return exc.code


def full(name, equals=False, reverse=False, positional_first=False):
    """name with every option and its positional, in the given order and form."""
    command = COMMANDS[name]
    options = []
    for flag, (kind, _, _) in command.options.items():
        value = VALUE[kind]
        options.append([flag] if value is None else
                       [f"{flag}={value}"] if equals else [flag, value])
    if reverse:
        options.reverse()
    words = [w for option in options for w in option]
    if command.positional:
        words = [INPUT] + words if positional_first else words + [INPUT]
    return [name] + words


def corpus():
    out = []
    for name in COMMANDS:
        for equals in (False, True):
            for reverse in (False, True):
                for first in (False, True):
                    out.append(full(name, equals, reverse, first))
    full_argvs = list(out)
    # Values: signs, underscores, spaces, other digits and bad ints, in
    # both forms, for every int option.
    for name, command in COMMANDS.items():
        base = full(name)
        for flag, (kind, _, _) in command.options.items():
            if kind is not int:
                continue
            k = base.index(flag)
            for value in ("-5", "1_000", "+4", " 7 ", "-0", "٣", "x", "1.5", "",
                          "0x10", "-1.5", "9" * 5000, "-x"):
                out.append(base[:k + 1] + [value] + base[k + 2:])
                out.append(base[:k] + [f"{flag}={value}"] + base[k + 2:])
            # repeated: the last one wins
            out.append(base + [flag, "3"])
            out.append(base + [f"{flag}=-3", flag, "4"])
            # missing: required or not
            out.append(base[:k] + base[k + 2:])
            # no value at the end, or an option in its place
            out.append(base[:k] + base[k + 2:] + [flag])
            out.append(base[:k + 1] + base[k + 2:])
    # Unique prefixes and ambiguous ones.
    out += [
        ["prime", "--tr", INPUT], ["prime", INPUT, "--t"], ["real", "--tra", INPUT],
        ["prime", INPUT, "--tr=1"], ["prime", INPUT, "--trace=1"], ["prime", INPUT, "--trace="],
        ["prime", INPUT, "--trace", "--trace"], ["prime", INPUT, "--tracer"],
        ["sweep", "--ch", "duality", "--max-r", "3", "--max-w=2", "--tri", "5", "--se=7"],
        ["sweep", "--check", "duality", "--max-rank=-1_000", "--tr", "7"],
        ["sweep", "--check=duality", "--max", "3"], ["sweep", "--check=duality", "--m=3"],
        ["sweep", "--check=duality", "--max-", "3"], ["sweep", "--c", "x", "--t", "1", "--s", "1"],
        ["sweep", "--help", "--max", "3"], ["sweep", "--max", "3", "--help"],
        ["rset", "--ra", "1", "--i", "1", "--r=1", "--j", "1", "--s", "1", "--jl", "1", "--jh=1"],
        ["rset", "--rank", "1", "--i", "1", "--r", "1", "--j", "1", "--s", "1", "--jx", "1"],
        ["qchar-product", "--r", "2", "--i", "1", "--j", "1", "--m", "2"],
        ["graph", INPUT, "--d", "a.dot"], ["graph", INPUT, "--dot=a=b"], ["graph", INPUT, "--dot="],
        ["graph", INPUT, "--dot", "a=b"], ["graph", INPUT, "--dot", "-"], ["graph", INPUT, "--=x"],
        ["factorize", INPUT, "--=x"], ["factorize", INPUT, "--="], ["graph", "--dot", INPUT],
        ["prime", INPUT, "--he"], ["prime", INPUT, "--h"], ["--he", "prime", INPUT],
        ["prime", INPUT, "--help=x"], ["prime", INPUT, "--he=x"], ["prime", INPUT, "-h="],
        ["prime", INPUT, "-h=x"], ["prime", INPUT, "-hh"], ["-hh", "prime", INPUT],
        ["prime", INPUT, "-h-"], ["--help=", "prime", INPUT],
    ]
    # '--' and arguments that start with '-'.
    out += [
        ["prime", "--", INPUT], ["prime", "--trace", "--", INPUT], ["examples", "--", "-x"],
        ["graph", "--dot=a=b", "--", "-x.json"],
        ["examples", "-x"], ["examples", "-5"], ["examples", "-1.5"], ["examples", "- x"],
        ["examples", "-"], ["examples", "--x y"], ["examples", ""], ["prime", "-in.json"],
        ["examples", "-x", "--help"], ["examples", "--help", "-x"],
    ]
    # Unknown options, commands and positionals.
    out += [
        [], ["bogus"], ["Prime", INPUT], ["-5", "prime", INPUT], ["prime"], ["prime", "--trace"],
        ["prime", "a", "b"], ["prime", "a", "b", "--trace"], ["prime", INPUT, "--bogus"],
        ["prime", "--bogus=1", INPUT], ["--bogus", "prime", INPUT], ["-x", "prime", INPUT],
        ["-x", "prime", INPUT, "--help"], ["-x"], ["--help"], ["-h"], ["-x", "-h"],
        ["rset", "x"] + full("rset")[1:], ["examples", "a", "b"], ["sweep"],
        ["prime", INPUT, "-x y"], ["prime", INPUT, "--x=y z"],
    ]
    # -h and --help in every position of every full argv.
    for argv in full_argvs:
        for k in range(len(argv) + 1):
            for flag in ("-h", "--help"):
                out.append(argv[:k] + [flag] + argv[k:])
    return out


# Where argparse's reading differs between Python releases, the table's answer
# is pinned here, and compared with argparse on 3.10 and 3.11 only, whose
# argparse no longer changes.
PINNED = {
    # argparse's negative-number pattern takes underscores in later releases.
    ("rset", "--rank", "-1_000", "--i", "1", "--r", "1", "--j", "1", "--s", "1"): 1,
    # 3.13.0 acts on -h and drops the letters stuck on after it.
    ("prime", INPUT, "-hx"): 1,
    ("prime", INPUT, "-hhx"): 1,
    ("-hfoo", "prime", INPUT): 1,
    # Later releases changed which '--' argparse strips, and where.
    ("--", "prime", INPUT): 1,
    ("--",): 1,
    ("prime", INPUT, "--"): ("prime", {"input": (str, INPUT), "trace": (bool, False)}),
    ("prime", INPUT, "--trace", "--"): 1,
    ("prime", "--", "--", INPUT): 1,
    ("prime", "--", "--"): ("prime", {"input": (str, "--"), "trace": (bool, False)}),
    ("prime", "--"): 1,
    ("prime", "--", INPUT, "--trace"): 1,
}
# Before 3.13 argparse strips '--' from an option's value, and gives the
# option an empty list, which no handler takes.  The table reads the value
# '--', as 3.13 does (later 3.12 releases too).
DASHES = {
    ("rset", "--rank=--", "--i", "1", "--r", "1", "--j", "1", "--s", "1"): 1,
    ("sweep", "--check=duality", "--seed=--"): 1,
    ("graph", INPUT, "--dot=--"): ("graph", {"input": (str, INPUT), "dot": (str, "--")}),
    ("sweep", "--check=--"): ("sweep", {"check": (str, "--"), "max_rank": (int, 6),
                                        "max_weight": (int, 4), "trials": (int, 1000),
                                        "seed": (int, 2024)}),
}


def test_table_parser_agrees_with_argparse():
    seen = {"values": 0, 0: 0, 1: 0}
    for argv in corpus():
        expected = outcome(_argparse, argv)
        assert outcome(_table, argv) == expected, argv
        seen["values" if isinstance(expected, tuple) else expected] += 1
    # The corpus reaches each kind of answer.
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_table_parser_on_argv_where_argparse_versions_differ(argv):
    assert outcome(_table, argv) == PINNED[argv]
    if sys.version_info < (3, 12):
        assert outcome(_argparse, argv) == PINNED[argv]


@pytest.mark.parametrize("argv", list(DASHES), ids=" ".join)
def test_an_option_value_of_a_double_dash(argv):
    assert outcome(_table, argv) == DASHES[argv]
    got = outcome(_argparse, argv)
    assert got == DASHES[argv] or (list, []) in got[1].values()
    if sys.version_info >= (3, 13):
        assert got == DASHES[argv]
