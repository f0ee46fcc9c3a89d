"""Exact combinatorics of q-factorization graphs for type-A quantum affine algebras.

Build the q-factorization graph of a Drinfeld polynomial, query reducibility
sets of Kirillov-Reshetikhin pairs, and decide primality and reality of the
associated simple module with a certificate of the rules used.
"""

from .decision import (AltLineConfig, CertStep, Verdict, alt_line_cut_simple,
                       decide, dual_pair_simple, is_prime, is_real)
from .drinfeld import KRFactor, dual
from .dynkin import DynkinA, Interval
from .graph import Arrow, QFactGraph, ShapeClass, build_graph, classify
from .qchar import (LWeight, SocleHead, dominant_product_lweights,
                    fundamental_qchar, socle_head)
from .redsets import minimal_window, r_set, string_parameter

__all__ = [
    "AltLineConfig", "Arrow", "CertStep", "DynkinA", "Interval", "KRFactor",
    "LWeight", "QFactGraph", "ShapeClass", "SocleHead", "Verdict",
    "alt_line_cut_simple", "build_graph", "classify", "decide",
    "dominant_product_lweights", "dual", "dual_pair_simple", "fundamental_qchar",
    "is_prime", "is_real", "minimal_window", "r_set", "socle_head",
    "string_parameter",
]

__version__ = "0.1.0"
