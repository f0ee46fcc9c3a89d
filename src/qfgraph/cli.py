"""Command-line front end.

JSON in, JSON out on stdout; human-readable notes go to stderr.  Exit codes:
0 success, 1 input error (usage errors included) or a stdout closed before
the output was written, 2 internal invariant violation (including failed
example reproductions and sweep counterexamples).  The commands, their
options and their help come from the table COMMANDS.

The input file format is a single object:

    {"rank": 3, "factors": [{"color": 1, "exponent": 1, "weight": 2}, ...]}
"""

from __future__ import annotations

import json
import os
import re
import sys
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
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
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
    factors = [KRFactor.from_json(item) for item in raw]
    for field, values in zip(KRFactor._fields, zip(*factors)):
        check_field(f"factor field '{field}'", *values)
    for f in factors:
        diagram.check_node(f.color)
    return diagram, factors


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def build_from_path(path: str) -> QFactGraph:
    diagram, factors = load_input(path)
    g = build_graph(factors, diagram)
    if g.was_refactorized:
        print("note: input was only a pre-factorization; it has been "
              "re-factorized", file=sys.stderr)
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
        print(f"wrote {args.dot}", file=sys.stderr)
    else:
        sys.stdout.write(dot)
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
    print(f"primality: {verdict.primality}; reality: {verdict.reality}",
          file=sys.stderr)
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
        print("example reproduction failed", file=sys.stderr)
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
    print(f"input error: {prog}: {message}\n{_usage(name)}", file=sys.stderr)
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
    sys.stdout.flush()
    sys.exit(0)


def parse_argv(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command argv names, and its values read against COMMANDS in one
    pass, left to right.  Options may come before or after the positional,
    take their value as the next argument or after '=', and repeat (the last
    one wins); after '--' every argument is positional.  A usage error exits
    1, and -h or --help exits 0 with the help on stdout."""
    stop = argv.index("--") if "--" in argv else len(argv)
    unknown = []
    for k, arg in enumerate(argv):
        found = _option(None, HELP_FLAGS, arg) if k < stop else None
        if found is None:
            break
        if found[0] is None:
            unknown.append(arg)
        else:
            _help_exit(None, *found)
    else:
        _fail(None, "the following arguments are required: command")
    if k == stop or arg not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {arg!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    return arg, _values(arg, argv[k + 1:], stop - k - 1, unknown)


def _values(name: str, args: list[str], stop: int, unknown: list[str]) -> SimpleNamespace:
    """The values of command name read from args, whose '--' is at stop;
    unknown holds the unknown options seen before the command."""
    command = COMMANDS[name]
    flags = (*HELP_FLAGS, *command.options)
    found = {i: _option(name, flags, arg) for i, arg in enumerate(args[:stop])}
    found = {i: f for i, f in found.items() if f is not None}
    values = {flag: default for flag, (_, default, _) in command.options.items()}
    positional = command.positional
    i = 0
    while i < len(args):
        if i not in found:
            j = i + (i == stop)  # a '--' may come before the positional
            if positional and j < len(args):
                values[positional[0]] = args[j]
                positional = None
                i = j + 1 + (j + 1 == stop)  # or right after it
            else:
                unknown.append(args[i])
                i += 1
            continue
        flag, value = found[i]
        i += 1
        if flag is None:
            unknown.append(args[i - 1])
            continue
        if flag in HELP_FLAGS:
            _help_exit(name, flag, value)
        kind = command.options[flag][0]
        if kind is bool:
            if value is not None:
                _fail(name, f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        else:
            if value is None:
                if i >= len(args) or i in found or i == stop:
                    _fail(name, f"argument {flag}: expected one argument")
                value = args[i]
                i += 1
            try:
                value = kind(value)
            except ValueError:
                _fail(name, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
        values[flag] = value
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if positional:
        missing.append(positional[0])
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(name, f"unrecognized arguments: {' '.join(unknown)}")
    # "--max-rank" is read as args.max_rank, and a positional by its name.
    return SimpleNamespace(**{key.lstrip("-").replace("-", "_"): value
                              for key, value in values.items()})


def main(argv=None) -> int:
    try:
        name, args = parse_argv(sys.argv[1:] if argv is None else argv)
        code = COMMANDS[name].run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout's descriptor at devnull, so
        # that the flush at exit finds no closed pipe (the recipe of the
        # signal module's "Note on SIGPIPE"); an in-memory stdout has none.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # io.UnsupportedOperation too
            return 1
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), fd)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
