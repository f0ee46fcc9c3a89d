"""Command-line front end.

JSON in, JSON out on stdout; human-readable notes go to stderr.  Exit codes:
0 success, 1 input error (usage errors included), 2 internal invariant
violation (including failed example reproductions and sweep counterexamples).

The input file format is a single object:

    {"rank": 3, "factors": [{"color": 1, "exponent": 1, "weight": 2}, ...]}
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fixtures, qchar, sweeps
from .decision import decide, is_prime, is_real
from .drinfeld import KRFactor, normalize
from .dynkin import DynkinA, Interval
from .graph import QFactGraph, build_graph, classify
from .redsets import r_set

# Largest reducibility set `rset` prints; each element is written out, so a
# set of 10^10 elements would need about a terabyte.
MAX_RSET_ELEMENTS = 10**6

# Most characters `rset` prints, bounded before any element is formatted:
# 10^4 elements of 4000 digits pass the element bound and would print 40 MB.
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
    if rs[MAX_RSET_ELEMENTS:]:  # a slice, not len(): len() overflows past 2^63
        raise ValueError(f"the reducibility set has more than "
                         f"{MAX_RSET_ELEMENTS} elements")
    if len(rs) * (len(str(rs[-1])) + 2) > MAX_RSET_CHARS:  # digits and ", "
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not 2: they are input errors (subparsers too)."""

    def error(self, message):
        self.exit(1, f"input error: {self.prog}: {message}\n{self.format_usage()}")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfgraph",
        description="q-factorization graphs of Drinfeld polynomials in type A: "
                    "build graphs, decide primality and reality, emit certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rset", help="print a reducibility set")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--jlo", type=int, default=None,
                   help="window lower end (defaults to the whole diagram)")
    p.add_argument("--jhi", type=int, default=None, help="window upper end")
    p.set_defaults(func=cmd_rset)

    p = sub.add_parser("factorize", help="q-factorize the product of the input factors")
    p.add_argument("input")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("graph", help="emit the graph in DOT format")
    p.add_argument("input")
    p.add_argument("--dot", default=None, help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("classify", help="shape tag of the graph")
    p.add_argument("input")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("prime", help="primality verdict with certificate")
    p.add_argument("input")
    p.add_argument("--trace", action="store_true", help="include the certificate")
    p.set_defaults(func=cmd_prime)

    p = sub.add_parser("real", help="reality verdict")
    p.add_argument("input")
    p.add_argument("--trace", action="store_true", help="include the certificate")
    p.set_defaults(func=cmd_real)

    p = sub.add_parser("qchar-product",
                       help="dominant l-weights and socle/head of a product "
                            "of two fundamental modules")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_qchar_product)

    p = sub.add_parser("examples", help="re-verify a built-in example family")
    p.add_argument("name", help="the example family; an unknown name lists them")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("sweep", help="run an exhaustive or randomized property sweep")
    p.add_argument("--check", required=True, help="the sweep; an unknown name lists them")
    p.add_argument("--max-rank", type=int, default=6)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
