"""Built-in example families with machine-checked expectations.

Each example rebuilds its graph from scratch and re-verifies every claim the
engine can check: arrow sets and labels, shape tags, subgraph primality, cut
simplicity booleans, and the engine verdicts.  Statuses that were
established by hand analysis beyond the rule engine's reach live in
KNOWN_STATUS; they are reported next to the computed verdict and are never
consulted by the engine itself.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .decision import (NOT_PRIME, PRIME, REAL, UNKNOWN, _end_arrow,
                       alt_line_cut_simple, is_prime, is_real)
from .drinfeld import KRFactor, dual
from .dynkin import DynkinA
from .graph import (ALTERNATING_LINE3, MONOTONIC_LINE3, OTHER, TREE,
                    build_graph, classify)

# Statuses established by hand analysis that the rule engine cannot re-derive.
KNOWN_STATUS = {
    "cosubpt": NOT_PRIME,
    "cesubpt": PRIME,
}


Check = namedtuple("Check", "label passed detail")


class ExampleReport:
    __slots__ = ("checks", "known_status")

    def __init__(self, known_status: str | None) -> None:
        self.checks, self.known_status = [], known_status

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(passed), detail))

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"{mark}: {c.label}{suffix}")
        if self.known_status is not None:
            out.append(f"NOTE: established status beyond the engine rules: "
                       f"{self.known_status}")
        return out


def newprimex_factors(r: int) -> tuple[DynkinA, list[KRFactor]]:
    diagram = DynkinA(2)
    return diagram, [KRFactor(1, r + 1, r), KRFactor(2, 0, 2), KRFactor(1, 4, 1)]


def cosubpt_factors() -> tuple[DynkinA, list[KRFactor]]:
    diagram = DynkinA(3)
    return diagram, [KRFactor(1, 1, 2), KRFactor(2, 5, 1),
                     KRFactor(3, 6, 3), KRFactor(3, 8, 1)]


def cesubpt_factors() -> tuple[DynkinA, list[KRFactor]]:
    diagram = DynkinA(2)
    return diagram, [KRFactor(1, 7, 2), KRFactor(1, 0, 1),
                     KRFactor(2, 4, 2), KRFactor(2, 3, 1)]


def _arrow_set(g) -> set[tuple[str, str, int]]:
    return {(g.vertices[a.tail].label(), g.vertices[a.head].label(), a.epsilon)
            for a in g.arrows}


def _cut_simple(g, mid: int, iso: int, other: int) -> bool:
    """Is the cut isolating `iso` of the alternating triple around `mid` simple?"""
    vm, vo = g.vertices[mid], g.vertices[other]
    return alt_line_cut_simple(_end_arrow(g, mid, iso), vo.color, vo.weight,
                               abs(vm.exponent - vo.exponent))


def run_newprimex() -> ExampleReport:
    report = ExampleReport(None)
    diagram, factors = newprimex_factors(1)
    g = build_graph(factors, diagram)
    report.add("r=1 input is only a pre-factorization", g.was_refactorized)
    report.add("r=1 normalizes to two vertices",
               g.vertices == (KRFactor(1, 3, 2), KRFactor(2, 0, 2)),
               detail=", ".join(v.label() for v in g.vertices))
    report.add("r=1 single arrow labeled 3",
               _arrow_set(g) == {("1^2@3", "2^2@0", 3)})
    report.add("r=1 verdict prime", is_prime(g).primality == PRIME)
    for r in range(2, 9):
        diagram, factors = newprimex_factors(r)
        g = build_graph(factors, diagram)
        shape = classify(g)
        report.add(f"r={r} shape alternating line", shape.tag == ALTERNATING_LINE3)
        report.add(f"r={r} arrow labels {{{r + 1}, 4}}",
                   sorted(a.epsilon for a in g.arrows) == sorted((r + 1, 4)))
        expected = NOT_PRIME if r == 2 else PRIME
        got = is_prime(g).primality
        report.add(f"r={r} verdict {expected}", got == expected, detail=f"got {got}")
    return report


def run_cosubpt() -> ExampleReport:
    report = ExampleReport(KNOWN_STATUS["cosubpt"])
    diagram, factors = cosubpt_factors()
    g = build_graph(factors, diagram)
    report.add("input already a q-factorization", not g.was_refactorized)
    report.add("arrows are exactly 3@8 ->3 2@5 ->4 1@1 <-5 3@6",
               _arrow_set(g) == {("3^1@8", "2^1@5", 3), ("2^1@5", "1^2@1", 4),
                                 ("3^3@6", "1^2@1", 5)})
    ids = {g.vertices[v].label(): v for v in range(len(g.vertices))}
    report.add("no arrow between 3@8 and 1@1",
               not g.adjacent(ids["3^1@8"], ids["1^2@1"]))
    report.add("shape is a tree", classify(g).tag == TREE)
    # In a tree a connected three-vertex subgraph is a vertex and two neighbors.
    triples = [g.induced((v, a, b)) for v in range(len(g))
               for a, b in itertools.combinations(
                   sorted(g.out[v] + g.into[v]), 2)]
    report.add("exactly two connected three-vertex subgraphs", len(triples) == 2)
    tags = sorted(classify(t).tag for t in triples)
    report.add("one monotonic and one alternating triple",
               tags == sorted((MONOTONIC_LINE3, ALTERNATING_LINE3)))
    report.add("both three-vertex subgraphs are prime",
               all(is_prime(t).primality == PRIME for t in triples))
    mid = ids["1^2@1"]
    cut_iso_2 = _cut_simple(g, mid, ids["2^1@5"], ids["3^3@6"])
    cut_iso_3 = _cut_simple(g, mid, ids["3^3@6"], ids["2^1@5"])
    report.add("cut isolating 2^1@5 is not simple", cut_iso_2 is False)
    report.add("cut isolating 3^3@6 is not simple", cut_iso_3 is False)
    verdict = is_prime(g)
    report.add("engine verdict is unknown", verdict.primality == UNKNOWN,
               detail=f"got {verdict.primality}")
    report.add("engine never claims prime here", verdict.primality != PRIME)
    report.add("reality verdict real", is_real(g).reality == REAL)
    return report


def run_cesubpt() -> ExampleReport:
    report = ExampleReport(KNOWN_STATUS["cesubpt"])
    diagram, factors = cesubpt_factors()
    g = build_graph(factors, diagram)
    report.add("input already a q-factorization", not g.was_refactorized)
    report.add("four arrows labeled 3, 4, 4, 3",
               _arrow_set(g) == {("1^2@7", "2^2@4", 3), ("1^2@7", "2^1@3", 4),
                                 ("2^2@4", "1^1@0", 4), ("2^1@3", "1^1@0", 3)})
    report.add("shape is a four-cycle (no finer tag)", classify(g).tag == OTHER)
    ids = {g.vertices[v].label(): v for v in range(len(g.vertices))}
    low_mid = ids["1^1@0"]
    cut_b = _cut_simple(g, low_mid, ids["2^2@4"], ids["2^1@3"])
    cut_c = _cut_simple(g, low_mid, ids["2^1@3"], ids["2^2@4"])
    report.add("cut isolating 2^2@4 (weight-2 end) is not simple", cut_b is False)
    report.add("cut isolating 2^1@3 (weight-1 end) is simple", cut_c is True)
    high_mid = ids["1^2@7"]
    cut_c2 = _cut_simple(g, high_mid, ids["2^1@3"], ids["2^2@4"])
    cut_b2 = _cut_simple(g, high_mid, ids["2^2@4"], ids["2^1@3"])
    report.add("upper triple: cut isolating 2^1@3 is not simple", cut_c2 is False)
    report.add("upper triple: cut isolating 2^2@4 is simple", cut_b2 is True)
    report.add("dual of 1^2@7 is 2^2@4",
               dual(KRFactor(1, 7, 2), diagram) == KRFactor(2, 4, 2))
    report.add("dual of 2^1@3 is 1^1@0",
               dual(KRFactor(2, 3, 1), diagram) == KRFactor(1, 0, 1))
    verdict = is_prime(g)
    report.add("engine verdict is unknown (cycle)", verdict.primality == UNKNOWN,
               detail=f"got {verdict.primality}")
    report.add("reality verdict unknown (not a tree)",
               is_real(g).reality == UNKNOWN)
    return report


_RUNNERS = {"newprimex": run_newprimex, "cosubpt": run_cosubpt,
            "cesubpt": run_cesubpt}
EXAMPLE_NAMES = tuple(_RUNNERS)


def run_example(name: str) -> ExampleReport:
    if name not in _RUNNERS:
        raise ValueError(f"unknown example {name!r}; choose from "
                         f"{', '.join(EXAMPLE_NAMES)}")
    return _RUNNERS[name]()
