"""Primality and reality engine for q-factorization graphs (type A).

The central predicate decides, for a three-vertex alternating line, whether
the cut isolating one end is a simple tensor product, tested through
reducibility-set membership (the criterion's native form).  The equivalent
string-parameter forms that the forms-agree sweep checks it against live in
qfgraph.sweeps, so this module holds only what the verdicts run.

Verdicts are three-valued and every verdict carries a certificate listing
the rules that produced it.  The rule set is sound but deliberately
incomplete: graphs outside its reach come back "unknown".
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import graph
from .dynkin import DynkinA, Interval
from .drinfeld import KRFactor, dual
from .graph import (ALTERNATING_LINE3, DISCONNECTED, MONOTONIC_LINE3, OTHER,
                    SINGLETON, TOTALLY_ORDERED, TRIANGLE, TWO_LINE, QFactGraph,
                    _overlaps, classify)
from .redsets import minimal_window, r_set, string_parameter

PRIME = "prime"
NOT_PRIME = "not_prime"
REAL = "real"
UNKNOWN = "unknown"


class AltLineConfig:
    """An alternating three-vertex line, normalized for the cut test.

    The middle vertex carries both arrows; `middle_is_source` records the
    original orientation (the cut test itself is orientation-blind, since
    reversing all arrows negates every exponent and leaves the labels and
    the criterion's quantities unchanged).  `iso_label` is the exponent gap
    m on the arrow joining the middle to the end being isolated and
    `other_label` the gap m' on the remaining arrow.

    Building a config raises ValueError on a line that is not alternating;
    `window` holds the minimal window J of the isolating arrow, which the
    cut test reads.
    """

    __slots__ = ("diagram", "iso_color", "iso_weight", "iso_label", "middle_color",
                 "middle_weight", "other_color", "other_weight", "other_label",
                 "middle_is_source", "window")

    def __init__(self, diagram: DynkinA, iso_color: int, iso_weight: int,
                 iso_label: int, middle_color: int, middle_weight: int,
                 other_color: int, other_weight: int, other_label: int,
                 middle_is_source: bool = True) -> None:
        for c in (iso_color, middle_color, other_color):
            diagram.check_node(c)
        self.window: Interval = minimal_window(diagram, iso_color, iso_weight,
                                               middle_color, middle_weight, iso_label)
        if self.window is None:  # the label is not in the unrestricted set
            raise ValueError(f"label {iso_label} is not an admissible arrow gap "
                             f"for the isolated end")
        # Membership by string parameter, as in minimal_window: no set is built.
        if string_parameter(diagram, middle_color, middle_weight, other_color,
                            other_weight, other_label) is None:
            raise ValueError(f"label {other_label} is not an admissible arrow gap "
                             f"for the other end")
        if string_parameter(diagram, iso_color, iso_weight, other_color, other_weight,
                            abs(iso_label - other_label)) is not None:
            raise ValueError("end vertices are adjacent; the line is not alternating")
        self.diagram = diagram
        self.iso_color, self.iso_weight, self.iso_label = iso_color, iso_weight, iso_label
        self.middle_color, self.middle_weight = middle_color, middle_weight
        self.other_color, self.other_weight = other_color, other_weight
        self.other_label, self.middle_is_source = other_label, middle_is_source

    def params_json(self) -> dict:
        return {
            "isolated": {"color": self.iso_color, "weight": self.iso_weight,
                         "label": self.iso_label},
            "middle": {"color": self.middle_color, "weight": self.middle_weight},
            "other": {"color": self.other_color, "weight": self.other_weight,
                      "label": self.other_label},
            "middle_is_source": self.middle_is_source,
        }


def cut_general_conditions(cfg: AltLineConfig) -> bool:
    """The three window-membership conditions of the cut-simplicity test."""
    dg, window = cfg.diagram, cfg.window
    jp, sp, mp = cfg.other_color, cfg.other_weight, cfg.other_label
    if not window.lo <= jp <= window.hi:
        return False
    if mp not in r_set(dg, cfg.middle_color, cfg.middle_weight, jp, sp, window):
        return False
    gap = abs(cfg.iso_label - mp - window.dual_coxeter())
    return gap in r_set(dg, window.reflect(cfg.iso_color), cfg.iso_weight, jp, sp,
                        window)


def alt_line_cut_simple(cfg: AltLineConfig) -> bool:
    """Is the tensor product isolating the i-end of the alternating line simple?

    With J the minimal window making the isolating arrow's label admissible,
    the cut is simple exactly when all of the following hold: the other end's
    color lies in J; its label stays admissible over J; |m - m' - h| lies in
    the J-set of the reflected isolated color against the other end (h the
    dual Coxeter number of J); and, for isolated weight r > 1, m - m' + 1 is
    not in the J-set at weight r - 1.  A True value means the three-vertex
    graph is not prime.
    """
    if not cut_general_conditions(cfg):
        return False
    r = cfg.iso_weight
    return r == 1 or (cfg.iso_label - cfg.other_label + 1
                      not in r_set(cfg.diagram, cfg.iso_color, r - 1,
                                   cfg.other_color, cfg.other_weight, cfg.window))


def dual_pair_simple(w1: KRFactor, w2: KRFactor, diagram: DynkinA) -> bool:
    """Is (dual of w1) tensor w2 simple over the whole diagram?"""
    d = dual(w1, diagram)
    gap = abs(d.exponent - w2.exponent)
    return gap not in r_set(diagram, d.color, w1.weight, w2.color, w2.weight)


# -- verdicts ---------------------------------------------------------------

CertStep = namedtuple("CertStep", "rule cites params")


class Verdict(namedtuple("Verdict", "primality reality certificate",
                         defaults=(UNKNOWN, UNKNOWN, ()))):
    """Immutable verdict; the certificate is a tuple of CertSteps."""

    __slots__ = ()

    def to_json(self, trace: bool) -> dict:
        out = {"primality": self.primality, "reality": self.reality}
        if trace:
            out["certificate"] = [step._asdict() for step in self.certificate]
        return out


def _alt_configs(g: QFactGraph, middle: int, iso: int, other: int) -> AltLineConfig:
    """Cut configuration for the alternating triple of g around the middle.

    An arrow's label is the exponent gap of its ends, so both labels and the
    orientation (the middle is the source when both ends lie below it) are
    read from the exponents; gaps of different signs raise ValueError.  The
    config's own checks prove both arrows and that the ends are not joined.
    """
    vm, vi, vo = g.vertices[middle], g.vertices[iso], g.vertices[other]
    m, mp = vm.exponent - vi.exponent, vm.exponent - vo.exponent
    if (m > 0) != (mp > 0):
        raise ValueError("vertices do not form an alternating line around the middle")
    return AltLineConfig(g.diagram, vi.color, vi.weight, abs(m),
                         vm.color, vm.weight,
                         vo.color, vo.weight, abs(mp),
                         middle_is_source=m > 0)


def _vertex_params(g: QFactGraph, ids) -> list[str]:
    return [g.vertices[v].label() for v in ids]


def _decided(primality: str, rule: str, cites: str, params: dict) -> Verdict:
    return Verdict(primality, certificate=(CertStep(rule, cites, params),))


def is_prime(g: QFactGraph) -> Verdict:
    """Three-valued primality verdict with a rule-by-rule certificate.

    The shape tag of classify(g) selects the rule.  A tree is not prime once
    one of its alternating triples has a simple end cut, since every
    connected subgraph of a prime tree is prime; the first such triple by
    sorted vertex ids is the certificate's witness.
    """
    if not g.vertices:
        raise ValueError("cannot decide primality of an empty graph")
    shape = classify(g)
    tag = shape.tag
    if tag == DISCONNECTED:
        return _decided(
            NOT_PRIME, "disconnected", "a prime module has a connected "
            "q-factorization graph",
            {"components": [_vertex_params(g, c) for c in shape.components]})
    if tag == SINGLETON:
        return _decided(
            PRIME, "singleton", "a single Kirillov-Reshetikhin factor admits no "
            "nontrivial dissociate splitting", {"vertex": g.vertices[0].label()})
    if tag == TWO_LINE:
        return _decided(
            PRIME, "two_vertex", "derived rule: any splitting separates the two "
            "linked factors, whose ordered tensor product is reducible by the "
            "arrow", {"epsilon": g.arrows[0].epsilon})
    if tag in (TRIANGLE, MONOTONIC_LINE3, TOTALLY_ORDERED):
        return _decided(PRIME, "totally_ordered", "totally ordered "
                        "q-factorization graphs are prime in type A", {})
    if tag == ALTERNATING_LINE3:
        e1, mid, e2 = shape.line_order
        for iso, other in ((e1, e2), (e2, e1)):
            cfg = _alt_configs(g, mid, iso, other)
            if alt_line_cut_simple(cfg):
                return _decided(
                    NOT_PRIME, "alt_line_cut", "three-vertex alternating line: "
                    "the cut isolating one end is a simple tensor product",
                    {"isolated": g.vertices[iso].label(), "config": cfg.params_json()})
        return _decided(
            PRIME, "alt_line_prime", "three-vertex alternating line: neither "
            "endpoint cut is a simple tensor product, and this criterion is exact",
            {"ends": _vertex_params(g, (e1, e2))})
    if tag == OTHER:
        return _decided(UNKNOWN, "inconclusive",
                        "no implemented rule decides graphs with cycles", {})
    # The tag is TREE: the alternating-triple scan, then the dual-pair rule.
    triple = _first_simple_triple(g)
    if triple is not None:
        return _decided(
            NOT_PRIME, "subgraph_not_prime", "every proper connected subgraph "
            "of a prime tree is prime; a non-prime subgraph refutes primality",
            {"subgraph": _vertex_params(g, triple)})
    if _tree_dual_pairs_simple(g):
        return _decided(
            PRIME, "dual_pairs_simple", "a tree is prime when the dual-pair "
            "tensor product of every non-adjacent vertex pair is simple (both "
            "orders checked)", {})
    return _decided(UNKNOWN, "inconclusive", "no implemented rule applies", {})


def _first_simple_triple(g: QFactGraph) -> tuple[int, ...] | None:
    """First alternating triple, by sorted vertex ids, with a simple end cut.

    An alternating triple is a middle vertex with two out-neighbors or two
    in-neighbors; in a tree no other connected three-vertex subgraph can be
    non-prime, because a monotonic path is totally ordered.

    Neighbor lists are sorted (build_graph lists arrows in (tail, head)
    order), so a middle's pairs come in sorted-triple order; each stream
    stops at its first simple triple or at the first one not below the best.
    The scan refuses the input with ValueError once it would test more than
    graph.MAX_BUILD_PAIRS end cuts.
    """
    best, budget = None, graph.MAX_BUILD_PAIRS
    for mid in range(len(g)):
        for ends in (g.out_neighbors(mid), g.in_neighbors(mid)):
            for a, b in itertools.combinations(ends, 2):
                key = tuple(sorted((mid, a, b)))
                if best is not None and key >= best:
                    break
                for iso, other in ((a, b), (b, a)):
                    budget -= 1
                    if budget < 0:
                        raise _over_budget("end cuts")
                    if alt_line_cut_simple(_alt_configs(g, mid, iso, other)):
                        best = key
                        break
                if best == key:
                    break
    return best


def _over_budget(what: str) -> ValueError:
    """The error for a tree whose rules would take more than graph.MAX_BUILD_PAIRS
    steps: a star's build examines about one pair per leaf, so the build's
    budget alone does not bound the rules, which test pairs of leaves."""
    return ValueError(f"the tree rules would test more than "
                      f"{graph.MAX_BUILD_PAIRS} {what}")


def _tree_dual_pairs_simple(g: QFactGraph) -> bool:
    """Is the dual-pair product simple for every non-adjacent pair, both orders?

    The dual of u sits at e_u - (n + 1) in u's parity class, and r_set is
    bounded by r + s + n - 1, so (dual of u) tensor v can be reducible only
    when e_v lies within r_u + s + n - 1 of that exponent: when u's window
    [e - 2n - r, e + r - 2] overlaps v's span [e - s, e + s] (see _overlaps).
    The scan refuses the input with ValueError once it would examine more
    than graph.MAX_BUILD_PAIRS such pairs.
    """
    n = g.diagram.n
    pairs = _overlaps(g.vertices,
                      lambda f: (f.exponent - 2 * n - f.weight, f.exponent + f.weight - 2),
                      lambda f: (f.exponent - f.weight, f.exponent + f.weight))
    for u, v in itertools.islice(pairs, graph.MAX_BUILD_PAIRS):
        if v != u and not g.adjacent(u, v) and \
                not dual_pair_simple(g.vertices[u], g.vertices[v], g.diagram):
            return False
    if next(pairs, None) is not None:
        raise _over_budget("dual pairs")
    return True


def is_real(g: QFactGraph) -> Verdict:
    """Reality verdict: trees are real in type A; everything else is unknown."""
    if not g.vertices:
        raise ValueError("cannot decide reality of an empty graph")
    if g.is_tree():
        return Verdict(reality=REAL, certificate=(CertStep(
            "tree_real", "a q-factorization graph afforded by a tree is real "
            "in type A", {}),))
    return Verdict(reality=UNKNOWN, certificate=(CertStep(
        "inconclusive", "no reality rule applies to graphs that are not trees", {}),))


def decide(g: QFactGraph) -> Verdict:
    """Combined primality and reality verdict with a merged certificate."""
    p = is_prime(g)
    r = is_real(g)
    return Verdict(p.primality, r.reality, p.certificate + r.certificate)
