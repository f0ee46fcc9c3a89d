"""q-factorization graphs: construction and shape classification.

Vertices are KR factors; there is an arrow (v, w) labeled by the exponent
gap whenever that gap is positive and lies in the reducibility set of the
two factors over the whole diagram.  Arrows always point from the higher
exponent to the lower one, so the graph is automatically acyclic and the
label along any path equals the exponent difference of its endpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import islice

from .dynkin import DynkinA
from .drinfeld import KRFactor, normalize
from .redsets import r_set

SINGLETON = "singleton"
TWO_LINE = "two_line"
MONOTONIC_LINE3 = "monotonic_line3"
ALTERNATING_LINE3 = "alternating_line3"
TRIANGLE = "triangle"
TOTALLY_ORDERED = "totally_ordered"
TREE = "tree"
DISCONNECTED = "disconnected"
OTHER = "other"


Arrow = namedtuple("Arrow", "tail head epsilon")
# Shape tag plus the supporting component / line data.
ShapeClass = namedtuple("ShapeClass", "tag components line_order", defaults=(None,))


class QFactGraph:
    __slots__ = ("diagram", "vertices", "arrows", "was_refactorized", "_pairs",
                 "_out", "_in", "_components")

    def __init__(self, diagram: DynkinA, vertices: tuple[KRFactor, ...],
                 arrows: tuple[Arrow, ...], was_refactorized: bool) -> None:
        self.diagram, self.vertices, self.arrows = diagram, vertices, arrows
        self.was_refactorized = was_refactorized
        self._pairs = {(a.tail, a.head) for a in arrows}
        # Neighbor lists stay lists: a tuple per vertex, freed with every
        # graph, piles up in CPython's tuple free lists and raises peak RSS.
        out: list[list[int]] = [[] for _ in vertices]
        into: list[list[int]] = [[] for _ in vertices]
        for a in arrows:
            out[a.tail].append(a.head)
            into[a.head].append(a.tail)
        self._out, self._in = tuple(out), tuple(into)
        # One walk per graph, shared by classify and is_tree.
        self._components = self.components()

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def adjacent(self, u: int, v: int) -> bool:
        return (u, v) in self._pairs or (v, u) in self._pairs

    def out_neighbors(self, v: int) -> list[int]:
        return self._out[v]

    def in_neighbors(self, v: int) -> list[int]:
        return self._in[v]

    def undirected_neighbors(self, v: int) -> list[int]:
        return sorted(self._out[v] + self._in[v])

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Weakly connected components as sorted vertex-id tuples; one walk."""
        seen: set[int] = set()
        comps = []
        for start in range(len(self.vertices)):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._out[v] + self._in[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_tree(self) -> bool:
        """Connected with one arrow fewer than vertices.

        Counting arrows counts edges: build_graph joins a pair only in the
        direction of its positive exponent gap, so no pair is joined twice.
        """
        return len(self.arrows) == len(self) - 1 and len(self._components) == 1

    def exponent_order(self) -> tuple[int, ...]:
        """Vertex ids by descending exponent, ties in id order."""
        return tuple(sorted(range(len(self.vertices)),
                            key=lambda v: -self.vertices[v].exponent))

    def is_totally_ordered(self) -> bool:
        """All vertex pairs comparable in the arrow-generated partial order.

        Arrows run from higher to lower exponent, so a total order can only
        be the exponent order, and no vertex lies strictly between two
        neighbors in it: the order is total exactly when each consecutive
        pair is joined by an arrow.  Equal exponents are never joined.
        """
        order = self.exponent_order()
        return all((u, v) in self._pairs for u, v in zip(order, order[1:]))

    # -- subgraphs and export -----------------------------------------------

    def induced(self, ids) -> "QFactGraph":
        """Induced subgraph on the given vertex ids (rebuilt, so re-sorted)."""
        return build_graph([self.vertices[v] for v in ids], self.diagram)

    def to_dot(self) -> str:
        lines = ["digraph qfactorization {", "  rankdir=LR;"]
        for idx, v in enumerate(self.vertices):
            lines.append(f'  v{idx} [label="{v.label()}"];')
        for a in self.arrows:  # build_graph sorts them by (tail, head)
            lines.append(f'  v{a.tail} -> v{a.head} [label="{a.epsilon}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# Most candidate (tail, head) pairs build_graph examines before it refuses
# the input, so also the most arrows a graph can have.  The largest build of a
# fixture or benchmark input examines 2655, a 10^5-factor fuzz input 247292.
# A build is refused before any r_set call, once the pair list is one over the
# cap: about 0.13 s and 50 MB peak (1800 factors, one per color at rank 1800;
# one core of a 2-vCPU Intel Xeon VM, Python 3.11).
MAX_BUILD_PAIRS = 5 * 10**5


def _overlaps(factors, left, right):
    """Every id pair (a, b) of one parity class whose closed intervals
    left(factors[a]) and right(factors[b]) overlap, each exactly once.

    Every element of r_set(i, r, j, s) has the parity of r + s + i + j, so an
    arrow or a dual pair joins only factors of one class
    (exponent + weight + color) mod 2.  Two closed intervals overlap exactly
    when one starts inside the other; on a tie the right one counts as
    starting inside the left one.  So each side is sorted by start once per
    class, and an interval's partners are one bisect slice of the other
    side: O(V log V + K) for K pairs, whatever the weights.
    """
    classes: tuple[list, list] = ([], [])
    for v, f in enumerate(factors):
        classes[(f.exponent + f.weight + f.color) % 2].append(v)
    for ids in filter(None, classes):
        lefts = sorted([left(factors[v]) + (v,) for v in ids])
        rights = sorted([right(factors[v]) + (v,) for v in ids])
        lstarts, _, lids = zip(*lefts)
        rstarts, _, rids = zip(*rights)
        for lo, hi, a in lefts:
            for b in rids[bisect_left(rstarts, lo):bisect_right(rstarts, hi)]:
                yield a, b
        for lo, hi, b in rights:
            for a in lids[bisect_right(lstarts, lo):bisect_right(lstarts, hi)]:
                yield a, b


def build_graph(factors, diagram: DynkinA) -> QFactGraph:
    """Build the q-factorization graph of the given multiset of factors.

    Inputs that are only a pre-factorization (some same-color pair coalesces)
    are passed through normalize first and flagged in the result.

    Every element of r_set(i, r, j, s) is at most r + s + d(i, j) + 2 * reach
    <= r + s + n - 1, so a tail of weight r can only reach a head of its
    parity class whose exponent lies 1 to r + s + n - 1 below its own: the
    tail's [e - r, e - 1] overlaps the head's [e, e + s + n - 1] (see
    _overlaps).  Each reducibility set is computed once per build.  An input
    with more than MAX_BUILD_PAIRS such pairs is refused with ValueError
    before any reducibility set is computed.
    """
    factors = list(factors)
    for f in factors:
        diagram.check_node(f.color)
    vertices, refactorized = normalize(factors)
    n = diagram.n
    exponents = [v.exponent for v in vertices]
    sides = [(v.color, v.weight) for v in vertices]
    sets: dict[tuple[int, int], dict[tuple[int, int], range]] = {}
    arrows = []
    pairs = list(islice(_overlaps(
        vertices, lambda f: (f.exponent - f.weight, f.exponent - 1),
        lambda f: (f.exponent, f.exponent + f.weight + n - 1)), MAX_BUILD_PAIRS + 1))
    if len(pairs) > MAX_BUILD_PAIRS:
        raise ValueError(f"the graph build would examine more than "
                         f"{MAX_BUILD_PAIRS} vertex pairs")
    for t, h in pairs:
        row = sets.get(sides[t])
        if row is None:
            row = sets[sides[t]] = {}
        rs = row.get(sides[h])
        if rs is None:
            rs = row[sides[h]] = r_set(diagram, *sides[t], *sides[h])
        gap = exponents[t] - exponents[h]
        if gap in rs:
            arrows.append(Arrow(t, h, gap))
    # Sorted arrows keep every neighbor list sorted (see _first_simple_triple).
    arrows.sort()
    return QFactGraph(diagram, vertices, tuple(arrows), refactorized)


def classify(g: QFactGraph) -> ShapeClass:
    """Shape tag of the graph, finest applicable tag first."""
    if not g.vertices:
        raise ValueError("cannot classify an empty graph")
    comps = g._components
    if len(comps) > 1:
        return ShapeClass(DISCONNECTED, comps)
    n = len(g.vertices)
    if n == 1:
        return ShapeClass(SINGLETON, comps)
    if n == 2:
        return ShapeClass(TWO_LINE, comps, g.exponent_order())
    if n == 3:
        if len(g.arrows) == 3:
            return ShapeClass(TRIANGLE, comps)
        middle = next(v for v in range(3) if len(g.undirected_neighbors(v)) == 2)
        if len(g.out_neighbors(middle)) == 1:  # one arrow in, one out
            return ShapeClass(MONOTONIC_LINE3, comps, g.exponent_order())
        ends = [v for v in range(3) if v != middle]
        return ShapeClass(ALTERNATING_LINE3, comps, (ends[0], middle, ends[1]))
    if g.is_totally_ordered():
        return ShapeClass(TOTALLY_ORDERED, comps)
    if g.is_tree():
        return ShapeClass(TREE, comps)
    return ShapeClass(OTHER, comps)
