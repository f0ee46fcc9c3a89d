"""Command-line front end.

JSON in, JSON out on stdout; human-readable notes go to stderr.  Exit codes:
0 success, 1 input error (usage errors included) or a stdout that could not
be written (a closed pipe, or `output error: ...` on stderr for a full disk
or a closed descriptor), 2 internal invariant violation (including failed
example reproductions and sweep counterexamples).  A closed or full stderr
loses its notes and messages but changes neither stdout nor the exit code.
The commands, their options and their help come from the table COMMANDS.

The input file format is a single object:

    {"rank": 3, "factors": [{"color": 1, "exponent": 1, "weight": 2}, ...]}
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Callable, NoReturn

from . import fixtures, qchar, sweeps
from .decision import decide, is_prime, is_real
from .drinfeld import KRFactor, normalize
from .dynkin import DynkinA, Interval
from .graph import QFactGraph, build_graph, classify
from .redsets import r_set

# Most characters `rset` prints, bounded before any element is formatted.
# The text "{a, b, ...}" takes a digit and two more characters per element,
# so a set of more than MAX_RSET_CHARS // 3 elements would pass it too.
MAX_RSET_CHARS = 10**7

# Bound on the magnitude of a rank, a factor field and an `rset` flag.
# Python refuses to print an int of more than 4300 digits, and fields that
# all parse can still yield one: two factors of weight 9 10^4299 merge into
# one of weight 1.35 10^4300.  Under this bound every printed integer is a
# short sum of input numbers (an exponent gap, a merged weight, which sums
# input weights, or a reducibility-set element, at most r + s + n - 1), so it
# stays below 10^4100 for any input of fewer than 10^100 factors.
MAX_FIELD = 10**4000


def check_field(name: str, *values: int) -> None:
    if not (-MAX_FIELD < min(values) and max(values) < MAX_FIELD):
        raise ValueError(f"{name} must be below 10^4000 in magnitude")


def load_input(path: str) -> tuple[DynkinA, list[KRFactor]]:
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
        if "\r" in text:  # the newlines a text-mode read translates
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also undecodable bytes and over-long integers
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"JSON in {path} is nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    rank = data.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValueError("'rank' must be a positive integer")
    raw = data.get("factors")
    if not isinstance(raw, list) or not raw:
        raise ValueError("'factors' must be a non-empty list")
    check_field("'rank'", rank)
    diagram = DynkinA(rank)
    # Every factor checked at once; only a bad one sends each item through
    # from_json, which names the first bad item.
    try:
        rows = [(f["color"], f["exponent"], f["weight"]) for f in raw]
        columns = tuple(zip(*rows))
        valid = set(map(type, chain(*columns))) == {int} \
            and min(columns[0]) >= 1 and min(columns[2]) >= 1
    except (KeyError, TypeError):
        valid = False
    if not valid:  # from_json raises on the first bad item, naming it
        for item in raw:
            KRFactor.from_json(item)
    for field, values in zip(KRFactor._fields, columns):
        check_field(f"factor field '{field}'", *values)
    if max(columns[0]) > rank:
        for color in columns[0]:
            diagram.check_node(color)
    factors = list(map(tuple.__new__, repeat(KRFactor), rows))  # checked above
    return diagram, factors


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def note(text: str) -> None:
    """Write a note or an error message to stderr, or drop it when stderr is
    closed or fails, so that stdout and the exit code stay the command's own.

    A failed write leaves its text in the stream's buffer, and the flush at
    exit would fail on it and set exit code 120; a failing descriptor is
    pointed at devnull instead (an in-memory stream has none)."""
    stream = sys.stderr
    if stream is None:  # fd 2 was closed at start
        return
    try:
        stream.write(text + "\n")
        stream.flush()
    except (OSError, ValueError):
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _flush() -> None:
    # With fd 1 closed at start, sys.stdout is None and print() drops output.
    if sys.stdout is None:
        raise OSError("stdout is closed")
    sys.stdout.flush()


def build_from_path(path: str) -> QFactGraph:
    diagram, factors = load_input(path)
    g = build_graph(factors, diagram)
    if g.was_refactorized:
        note("note: input was only a pre-factorization; it has been re-factorized")
    return g


def cmd_rset(args) -> int:
    for flag in ("rank", "i", "r", "j", "s", "jlo", "jhi"):
        check_field(f"--{flag}", getattr(args, flag) or 0)
    diagram = DynkinA(args.rank)
    window = None
    if (args.jlo is None) != (args.jhi is None):
        raise ValueError("--jlo and --jhi must be given together")
    if args.jlo is not None:
        window = Interval(args.jlo, args.jhi)
    rs = r_set(diagram, args.i, args.r, args.j, args.s, window)
    # The size first, by a slice: len() overflows past 2^63.
    if rs[MAX_RSET_CHARS // 3:] or len(rs) * (len(str(rs[-1])) + 2) > MAX_RSET_CHARS:
        raise ValueError(f"the reducibility set would print more than "
                         f"{MAX_RSET_CHARS} characters")
    print("{" + ", ".join(map(str, rs)) + "}")
    return 0


def cmd_factorize(args) -> int:
    diagram, factors = load_input(args.input)
    output, refactorized = normalize(factors)
    emit({"rank": diagram.n,
          "factors": [f.to_json() for f in output],
          "was_refactorized": refactorized})
    return 0


def cmd_graph(args) -> int:
    g = build_from_path(args.input)
    dot = g.to_dot()
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            raise ValueError(f"cannot write {args.dot}: {exc}") from exc
        note(f"wrote {args.dot}")
    else:
        print(dot, end="")
    return 0


def cmd_classify(args) -> int:
    g = build_from_path(args.input)
    shape = classify(g)
    emit({"tag": shape.tag,
          "components": [list(c) for c in shape.components],
          "line_order": list(shape.line_order) if shape.line_order else None,
          "was_refactorized": g.was_refactorized})
    return 0


def cmd_prime(args) -> int:
    g = build_from_path(args.input)
    verdict = decide(g)
    emit(verdict.to_json(trace=args.trace))
    note(f"primality: {verdict.primality}; reality: {verdict.reality}")
    return 0


def cmd_real(args) -> int:
    g = build_from_path(args.input)
    verdict = is_real(g)._replace(primality=is_prime(g).primality)
    emit(verdict.to_json(trace=args.trace))
    return 0


def cmd_qchar_product(args) -> int:
    diagram = DynkinA(args.rank)
    dominant = qchar.dominant_product_lweights(diagram, args.i, args.j, args.m)
    sh = qchar.socle_head(diagram, args.i, args.j, args.m)
    emit({"dominant": sorted((w.to_json() for w in dominant), key=str),
          "socle_head": sh.to_json()})
    return 0


def cmd_examples(args) -> int:
    report = fixtures.run_example(args.name)
    for line in report.lines():
        print(line)
    if not report.all_passed():
        note("example reproduction failed")
        return 2
    return 0


def cmd_sweep(args) -> int:
    import inspect  # here, not at the top: no other command reads signatures
    try:
        check = sweeps.CHECKS[args.check]
    except KeyError:
        raise ValueError(f"unknown check {args.check!r}; choose from "
                         f"{', '.join(sorted(sweeps.CHECKS))}") from None
    kwargs = {name: getattr(args, name) for name in inspect.signature(check).parameters}
    caps = sweeps.SWEEP_CAPS
    for name in [n for n in kwargs if n in caps]:  # in signature order
        value = kwargs[name]
        flag = f"--{name.replace('_', '-')}"
        if value < 1:  # a check must not pass on zero cases
            raise ValueError(f"{flag} must be at least 1, got {value}")
        if value > caps[name]:
            raise ValueError(f"{flag} must be at most {caps[name]}, got {value}")
    result = check(**kwargs)
    for line in result.lines():
        print(line)
    return 0 if result.passed else 2


class Command:
    """A handler with its help line, its positional as (name, help) or None,
    and its options as flag -> (type, default, help); type bool takes no
    value.  A plain class: building a NamedTuple class adds about 0.15 ms to
    each start."""

    def __init__(self, run: Callable[..., int], help: str,
                 positional: tuple[str, str] | None, options: dict) -> None:
        self.run, self.help, self.positional, self.options = run, help, positional, options


REQUIRED = object()  # the default of an option that must be given
HELP_FLAGS = ("-h", "--help")

COMMANDS = {
    "rset": Command(cmd_rset, "print a reducibility set", None, {
        "--rank": (int, REQUIRED, ""),
        "--i": (int, REQUIRED, ""),
        "--r": (int, REQUIRED, ""),
        "--j": (int, REQUIRED, ""),
        "--s": (int, REQUIRED, ""),
        "--jlo": (int, None, "window lower end (defaults to the whole diagram)"),
        "--jhi": (int, None, "window upper end")}),
    "factorize": Command(cmd_factorize, "q-factorize the product of the input factors",
                         ("input", ""), {}),
    "graph": Command(cmd_graph, "emit the graph in DOT format", ("input", ""), {
        "--dot": (str, None, "write DOT here instead of stdout")}),
    "classify": Command(cmd_classify, "shape tag of the graph", ("input", ""), {}),
    "prime": Command(cmd_prime, "primality verdict with certificate", ("input", ""), {
        "--trace": (bool, False, "include the certificate")}),
    "real": Command(cmd_real, "reality verdict", ("input", ""), {
        "--trace": (bool, False, "include the certificate")}),
    "qchar-product": Command(cmd_qchar_product,
                             "dominant l-weights and socle/head of a product "
                             "of two fundamental modules", None, {
        "--rank": (int, REQUIRED, ""),
        "--i": (int, REQUIRED, ""),
        "--j": (int, REQUIRED, ""),
        "--m": (int, REQUIRED, "")}),
    "examples": Command(cmd_examples, "re-verify a built-in example family",
                        ("name", "the example family; an unknown name lists them"), {}),
    "sweep": Command(cmd_sweep, "run an exhaustive or randomized property sweep", None, {
        "--check": (str, REQUIRED, "the sweep; an unknown name lists them"),
        "--max-rank": (int, 6, ""),
        "--max-weight": (int, 4, ""),
        "--trials": (int, 1000, ""),
        "--seed": (int, 2024, "")}),
}


def _shown(flag: str, kind: type) -> str:
    return flag if kind is bool else f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: qfgraph [-h] {" + ",".join(COMMANDS) + "} ..."
    command = COMMANDS[name]
    words = ["usage: qfgraph", name, "[-h]"]
    for flag, (kind, default, _) in command.options.items():
        words.append(_shown(flag, kind) if default is REQUIRED else f"[{_shown(flag, kind)}]")
    if command.positional:
        words.append(command.positional[0])
    return " ".join(words)


def _help(name: str | None) -> str:
    if name is None:
        about = ("q-factorization graphs of Drinfeld polynomials in type A: build\n"
                 "graphs, decide primality and reality, emit certificates.")
        rows = [(n, c.help) for n, c in COMMANDS.items()]
    else:
        command = COMMANDS[name]
        about = command.help
        rows = [command.positional] if command.positional else []
        rows += [(_shown(flag, kind), text)
                 for flag, (kind, _, text) in command.options.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(name), "", about, ""]
                     + [f"  {left:<{width}}{text}".rstrip() for left, text in rows])


def _fail(name: str | None, message: str) -> NoReturn:
    prog = "qfgraph" if name is None else f"qfgraph {name}"
    note(f"input error: {prog}: {message}\n{_usage(name)}")
    sys.exit(1)


def _option(name: str | None, flags, arg: str):
    """None if arg is a value; else (flag, the value after '=' or None), with
    flag None for an unknown option.  A long option may be cut to a unique
    prefix, and -h may have more characters stuck on."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in flags:
        return head, value
    if arg[1] == "-":
        matches = [flag for flag in flags if flag.startswith(head)]
        if len(matches) > 1:
            _fail(name, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[1] == "h":
        return "-h", arg[2:]
    # A negative number or an argument with a space is a value.  The pattern
    # is compiled on first use, which few requests reach.
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _help_exit(name: str | None, flag: str, value: str | None) -> NoReturn:
    # -h may be repeated in one argument (-hhh); nothing else may follow it.
    if value is not None and (flag == "--help" or set(value) != {"h"}):
        _fail(name, f"argument -h/--help: ignored explicit argument {value!r}")
    print(_help(name))
    _flush()
    sys.exit(0)


def parse_argv(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command argv names and its values, read against COMMANDS left to
    right.  An option may precede or follow the positional, take its value
    next or after '=', and repeat (the last one wins).  Each argument after
    the first '--' is a value; that '--' is skipped right before a missing
    positional or right after it.  A usage error exits 1, -h or --help 0."""
    stop = argv.index("--") if "--" in argv else len(argv)
    unknown = []
    for k, name in enumerate(argv):  # only -h and --help precede the command
        if k == stop or not (option := _option(None, HELP_FLAGS, name)):
            break
        if option[0] is not None:
            _help_exit(None, *option)
        unknown.append(name)
    else:
        _fail(None, "the following arguments are required: command")
    if k == stop or name not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    command = COMMANDS[name]
    flags = (*HELP_FLAGS, *command.options)
    # Classified up front, so that an ambiguous prefix is refused even after -h.
    found = [_option(name, flags, arg) if k < i < stop else None
             for i, arg in enumerate(argv)]
    values = {flag: default for flag, (_, default, _) in command.options.items()}
    positional = [command.positional[0]] if command.positional else []  # its name, until read
    i = k + 1
    while i < len(argv):
        arg, (flag, value) = argv[i], found[i] or (None, None)
        if i == stop:  # the first '--': skipped before a missing positional
            if not (positional and i + 1 < len(argv)):
                unknown.append(arg)
        elif found[i] is None and positional:
            values[positional.pop()] = arg
            i += i + 1 == stop  # skip a '--' right after it
        elif flag is None:
            unknown.append(arg)
        elif flag in HELP_FLAGS:
            _help_exit(name, flag, value)
        elif command.options[flag][0] is bool:
            if value is not None:
                _fail(name, f"argument {flag}: ignored explicit argument {value!r}")
            values[flag] = True
        else:
            kind = command.options[flag][0]
            if value is None:
                i += 1
                if i == len(argv) or found[i] or i == stop:
                    _fail(name, f"argument {flag}: expected one argument")
                value = argv[i]
            try:
                values[flag] = kind(value)
            except ValueError:
                _fail(name, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
        i += 1
    missing = [flag for flag, value in values.items() if value is REQUIRED] + positional
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(name, f"unrecognized arguments: {' '.join(unknown)}")
    # "--max-rank" is read as args.max_rank, and a positional by its name.
    return name, SimpleNamespace(**{key.lstrip("-").replace("-", "_"): value
                                    for key, value in values.items()})


def main(argv=None) -> int:
    try:
        name, args = parse_argv(sys.argv[1:] if argv is None else argv)
        code = COMMANDS[name].run(args)
        _flush()
        return code
    except OSError as exc:
        # stdout failed (note drops what stderr refuses, and a command turns
        # the OSError of a file it opens into a ValueError); a closed pipe
        # gets no message.  A stdout that still fails, if it has a
        # descriptor, is pointed at devnull so that the flush at exit
        # succeeds (the signal module's "Note on SIGPIPE").
        if not isinstance(exc, BrokenPipeError):
            note(f"output error: {exc}")
        try:
            _flush()
        except OSError:
            with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        note(f"input error: {exc}")
        return 1
    except AssertionError as exc:
        note(f"internal invariant violation: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
