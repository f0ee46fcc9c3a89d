"""Exact combinatorics of q-factorization graphs for type-A quantum affine algebras.

Build the q-factorization graph of a Drinfeld polynomial, query reducibility
sets of Kirillov-Reshetikhin pairs, and decide primality and reality of the
associated simple module with a certificate of the rules used.

The q-characters, sweeps and examples (`qchar`, `sweeps`, `fixtures`) load
on first use: no verdict reads them.
"""

import importlib.util
import sys

from .decision import (CertStep, Verdict, alt_line_cut_simple, decide,
                       dual_pair_simple, is_prime, is_real, isolating_arrow)
from .drinfeld import KRFactor, dual
from .dynkin import DynkinA, Interval
from .graph import Arrow, QFactGraph, ShapeClass, build_graph, classify
from .redsets import minimal_window, r_set, string_parameter

__all__ = [
    "Arrow", "CertStep", "DynkinA", "Interval", "KRFactor", "QFactGraph",
    "ShapeClass", "Verdict", "alt_line_cut_simple", "build_graph", "classify",
    "decide", "dual", "dual_pair_simple", "is_prime", "is_real",
    "isolating_arrow", "minimal_window", "r_set", "string_parameter",
]

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule `name`, in sys.modules and unexecuted: its code runs on
    the first attribute access (the LazyLoader recipe of the importlib docs)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fixtures, qchar, sweeps = map(_lazy, ("fixtures", "qchar", "sweeps"))
