"""Primality and reality engine for q-factorization graphs (type A).

The central predicate decides, for a three-vertex alternating line, whether
the cut isolating one end is a simple tensor product, tested through
reducibility-set membership (the criterion's native form), which
string_parameter answers without building a set.  The inequality forms that
the forms-agree sweep checks it against live in qfgraph.sweeps, so this
module holds only what the verdicts run.

Verdicts are three-valued and every verdict carries a certificate listing
the rules that produced it.  The rule set is sound but deliberately
incomplete: graphs outside its reach come back "unknown".
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import graph
from .dynkin import DynkinA
from .drinfeld import KRFactor, dual
from .graph import (ALTERNATING_LINE3, DISCONNECTED, MONOTONIC_LINE3, OTHER,
                    SINGLETON, TOTALLY_ORDERED, TRIANGLE, TWO_LINE, QFactGraph,
                    _overlaps, classify)
from .redsets import minimal_window, string_parameter

PRIME = "prime"
NOT_PRIME = "not_prime"
REAL = "real"
UNKNOWN = "unknown"


IsolatingArrow = namedtuple("IsolatingArrow", "diagram iso_color iso_weight "
                            "middle_color middle_weight iso_label window reflected h")


def isolating_arrow(diagram: DynkinA, i: int, r: int, j: int, s: int,
                    m: int) -> IsolatingArrow:
    """The cut test's per-arrow part, shared by every partner of the arrow of
    label m from the middle (j, s) to the isolated end (i, r): its minimal
    window J, J.reflect(i) and h, the dual Coxeter number of J."""
    window = minimal_window(diagram, i, r, j, s, m)
    if window is None:  # the label is not in the unrestricted set
        raise ValueError(f"label {m} is not an admissible arrow gap for the isolated end")
    return IsolatingArrow(diagram, i, r, j, s, m, window, window.reflect(i),
                          window.dual_coxeter())


def cut_general_conditions(arrow: IsolatingArrow, jp: int, sp: int, mp: int) -> bool:
    """The three window-membership conditions of the cut-simplicity test."""
    dg, _, r, j, s, m, window, reflected, h = arrow
    if not window.lo <= jp <= window.hi:
        return False
    if string_parameter(dg, j, s, jp, sp, mp, window) is None:
        return False
    return string_parameter(dg, reflected, r, jp, sp, abs(m - mp - h), window) is not None


def alt_line_cut_simple(arrow: IsolatingArrow, jp: int, sp: int, mp: int) -> bool:
    """The cut test's per-partner part: is the cut isolating the arrow's end
    simple when the middle's other arrow, of label m', reaches (j', s')?

    With J the minimal window making the isolating arrow's label admissible,
    the cut is simple exactly when all of the following hold: j' lies in J;
    m' stays admissible over J; |m - m' - h| lies in the J-set of the
    reflected isolated color against (j', s') (h the dual Coxeter number of
    J); and, for isolated weight r > 1, m - m' + 1 is not in the J-set at
    weight r - 1.  A True value means the three-vertex graph is not prime.
    """
    if not cut_general_conditions(arrow, jp, sp, mp):
        return False
    dg, i, r, _, _, m, window, _, _ = arrow
    return r == 1 or string_parameter(dg, i, r - 1, jp, sp, m - mp + 1, window) is None


def _end_arrow(g: QFactGraph, middle: int, end: int) -> IsolatingArrow:
    """The per-arrow part of the arrow of g joining the middle to an end of an
    alternating triple; its label is the exponent gap of the two."""
    vm, ve = g.vertices[middle], g.vertices[end]
    return isolating_arrow(g.diagram, ve.color, ve.weight, vm.color, vm.weight,
                           abs(vm.exponent - ve.exponent))


def _cut_params(middle: KRFactor, iso: KRFactor, other: KRFactor) -> dict:
    """A cut's certificate parameters: each end's color, weight and label (its
    exponent gap to the middle), and whether the middle, above its ends, is
    the source of both arrows."""
    return {
        "isolated": {"color": iso.color, "weight": iso.weight,
                     "label": abs(middle.exponent - iso.exponent)},
        "middle": {"color": middle.color, "weight": middle.weight},
        "other": {"color": other.color, "weight": other.weight,
                  "label": abs(middle.exponent - other.exponent)},
        "middle_is_source": middle.exponent > iso.exponent,
    }


def dual_pair_simple(d: KRFactor, w: KRFactor, diagram: DynkinA) -> bool:
    """Is d tensor w simple over the whole diagram, for d = dual(w1, diagram)
    the dual of a factor w1?  Taking the dual lets a scan compute it once."""
    gap = abs(d.exponent - w.exponent)
    return string_parameter(diagram, d.color, d.weight, w.color, w.weight, gap) is None


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


def _vertex_params(g: QFactGraph, ids) -> list[str]:
    return [g.vertices[v].label() for v in ids]


def _decided(primality: str, rule: str, cites: str, params: dict) -> Verdict:
    return Verdict(primality, certificate=(CertStep(rule, cites, params),))


def is_prime(g: QFactGraph) -> Verdict:
    """Three-valued primality verdict with a rule-by-rule certificate.

    The shape tag of classify(g) selects the rule.  A three-vertex
    alternating line is prime exactly when neither end cut is simple.  A tree
    is not prime once one of its alternating triples has a simple end cut,
    since every connected subgraph of a prime tree is prime; the first such
    triple by sorted vertex ids is the certificate's witness.
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
    if tag == OTHER:
        return _decided(UNKNOWN, "inconclusive",
                        "no implemented rule decides graphs with cycles", {})
    # An alternating line or a tree: the alternating-triple scan decides the
    # line, whose middle it tests with the ends in line order, and refutes a
    # tree; the dual-pair rule then tries the tree.
    cut = _first_simple_cut(g)
    if tag == ALTERNATING_LINE3:
        if cut is not None:
            return _decided(
                NOT_PRIME, "alt_line_cut", "three-vertex alternating line: "
                "the cut isolating one end is a simple tensor product",
                {"isolated": g.vertices[cut[1]].label(),
                 "config": _cut_params(*[g.vertices[v] for v in cut])})
        return _decided(
            PRIME, "alt_line_prime", "three-vertex alternating line: neither "
            "endpoint cut is a simple tensor product, and this criterion is exact",
            {"ends": _vertex_params(g, shape.line_order[::2])})
    if cut is not None:
        return _decided(
            NOT_PRIME, "subgraph_not_prime", "every proper connected subgraph "
            "of a prime tree is prime; a non-prime subgraph refutes primality",
            {"subgraph": _vertex_params(g, sorted(cut))})
    if _tree_dual_pairs_simple(g):
        return _decided(
            PRIME, "dual_pairs_simple", "a tree is prime when the dual-pair "
            "tensor product of every non-adjacent vertex pair is simple (both "
            "orders checked)", {})
    return _decided(UNKNOWN, "inconclusive", "no implemented rule applies", {})


def _first_simple_cut(g: QFactGraph) -> tuple[int, int, int] | None:
    """First alternating triple, by sorted vertex ids, with a simple end cut,
    as (middle, isolated end, other end).

    An alternating triple is a middle vertex with two out-neighbors or two
    in-neighbors; in a tree no other connected three-vertex subgraph can be
    non-prime, because a monotonic path is totally ordered.

    Neighbor lists are sorted (build_graph lists arrows in (tail, head)
    order), so a middle's pairs come in strictly rising sorted-triple order,
    and each pair isolates its lower-id end first; each stream stops untested
    at the first triple not below the best, at the latest the one after its
    own first simple triple.  The build has proved both arrows and that the
    ends are not joined, so an end's per-arrow part serves all its cuts in a
    stream.  The scan refuses the input with ValueError once it would test
    more than graph.MAX_BUILD_PAIRS end cuts.
    """
    best, budget, vertices = None, graph.MAX_BUILD_PAIRS, g.vertices  # best: (key, cut)
    for mid, vm in enumerate(vertices):
        for ends in (g.out[mid], g.into[mid]):
            arrows = {}  # each isolated end's per-arrow part, from its first cut on
            for a, b in itertools.combinations(ends, 2):
                key = tuple(sorted((mid, a, b)))
                if best is not None and key >= best[0]:
                    break
                for iso, other in ((a, b), (b, a)):
                    budget -= 1
                    if budget < 0:
                        raise _over_budget("end cuts")
                    if iso not in arrows:
                        arrows[iso] = _end_arrow(g, mid, iso)
                    vo = vertices[other]
                    if alt_line_cut_simple(arrows[iso], vo.color, vo.weight,
                                           abs(vm.exponent - vo.exponent)):
                        best = key, (mid, iso, other)
                        break
    return None if best is None else best[1]


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
    Each vertex's dual is computed once.  The scan walks the partner runs in
    order, stops at the first pair that is not simple, and refuses the input
    with ValueError once it would examine more than graph.MAX_BUILD_PAIRS
    such pairs.
    """
    dg, vertices = g.diagram, g.vertices
    duals = [dual(f, dg) for f in vertices]
    budget = graph.MAX_BUILD_PAIRS
    for w, side, ids in _overlaps(
            vertices, lambda f: (f.exponent - 2 * dg.n - f.weight, f.exponent + f.weight - 2),
            lambda f: (f.exponent - f.weight, f.exponent + f.weight)):
        for x in ids:
            budget -= 1
            if budget < 0:
                raise _over_budget("dual pairs")
            u, v = (x, w) if side else (w, x)
            if v != u and not g.adjacent(u, v) and \
                    not dual_pair_simple(duals[u], vertices[v], dg):
                return False
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
