"""The argparse parser `qfgraph.cli` used before its command table: the
reference of tests/test_cli_argv.py.  It reads the same argv into the same
values, exits 1 on a usage error and 0 on -h or --help."""

import argparse

from qfgraph.cli import (cmd_classify, cmd_examples, cmd_factorize, cmd_graph, cmd_prime,
                         cmd_qchar_product, cmd_real, cmd_rset, cmd_sweep)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not 2: they are input errors (subparsers too)."""

    def error(self, message):
        self.exit(1, f"input error: {self.prog}: {message}\n{self.format_usage()}")


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
