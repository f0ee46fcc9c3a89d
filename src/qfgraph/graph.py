"""q-factorization graphs: construction, shape classification, dualities.

Vertices are KR factors; there is an arrow (v, w) labeled by the exponent
gap whenever that gap is positive and lies in the reducibility set of the
two factors over the whole diagram.  Arrows always point from the higher
exponent to the lower one, so the graph is automatically acyclic and the
label along any path equals the exponent difference of its endpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .dynkin import DynkinA
from .drinfeld import KRFactor, dual, normalize
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


@dataclass(frozen=True)
class Arrow:
    tail: int
    head: int
    epsilon: int


@dataclass(frozen=True)
class ShapeClass:
    """Shape tag plus the supporting component / line data."""

    tag: str
    components: tuple[tuple[int, ...], ...]
    line_order: tuple[int, ...] | None = None


@dataclass(frozen=True)
class QFactGraph:
    diagram: DynkinA
    vertices: tuple[KRFactor, ...]
    arrows: tuple[Arrow, ...]
    was_refactorized: bool = False
    _arrow_map: dict = field(init=False, repr=False, compare=False, hash=False)
    _out: tuple = field(init=False, repr=False, compare=False, hash=False)
    _in: tuple = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_arrow_map",
                           {(a.tail, a.head): a.epsilon for a in self.arrows})
        # Neighbor lists stay lists: a tuple per vertex, freed with every
        # graph, piles up in CPython's tuple free lists and raises peak RSS.
        out: list[list[int]] = [[] for _ in self.vertices]
        into: list[list[int]] = [[] for _ in self.vertices]
        for a in self.arrows:
            out[a.tail].append(a.head)
            into[a.head].append(a.tail)
        object.__setattr__(self, "_out", tuple(out))
        object.__setattr__(self, "_in", tuple(into))

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def arrow_between(self, tail: int, head: int) -> int | None:
        return self._arrow_map.get((tail, head))

    def adjacent(self, u: int, v: int) -> bool:
        return (u, v) in self._arrow_map or (v, u) in self._arrow_map

    def out_neighbors(self, v: int) -> list[int]:
        return self._out[v]

    def in_neighbors(self, v: int) -> list[int]:
        return self._in[v]

    def undirected_neighbors(self, v: int) -> list[int]:
        return sorted(self._out[v] + self._in[v])

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Weakly connected components as sorted vertex-id tuples."""
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
                for w in self.undirected_neighbors(v):
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
        return len(self.arrows) == len(self) - 1 and len(self.components()) == 1

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
        return all((u, v) in self._arrow_map for u, v in zip(order, order[1:]))

    # -- construction and transforms ----------------------------------------

    def induced(self, ids) -> "QFactGraph":
        """Induced subgraph on the given vertex ids (rebuilt, so re-sorted)."""
        return build_graph([self.vertices[v] for v in ids], self.diagram)

    def arrow_dual(self) -> "QFactGraph":
        """Reverse every arrow by negating all exponents."""
        flipped = [KRFactor(v.color, -v.exponent, v.weight) for v in self.vertices]
        g = build_graph(flipped, self.diagram)
        assert not g.was_refactorized
        return g

    def color_dual(self) -> "QFactGraph":
        """Replace every vertex by its right dual over the whole diagram."""
        g = build_graph([dual(v, self.diagram) for v in self.vertices], self.diagram)
        assert not g.was_refactorized
        return g

    def to_dot(self) -> str:
        lines = ["digraph qfactorization {", "  rankdir=LR;"]
        for idx, v in enumerate(self.vertices):
            lines.append(f'  v{idx} [label="{v.label()}"];')
        for a in sorted(self.arrows, key=lambda a: (a.tail, a.head)):
            lines.append(f'  v{a.tail} -> v{a.head} [label="{a.epsilon}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _exponent_window(factors):
    """A function taking (lo, hi) to the ids of the factors with exponent in [lo, hi].

    The factors are sorted by exponent once; each query bisects that order,
    so its cost grows with the number of ids it returns, not with the number
    of factors.  The ids come back in ascending order.
    """
    exponents = [f.exponent for f in factors]
    order = sorted(range(len(factors)), key=exponents.__getitem__)
    exponents.sort()
    return lambda lo, hi: sorted(order[bisect_left(exponents, lo):
                                       bisect_right(exponents, hi)])


def build_graph(factors, diagram: DynkinA) -> QFactGraph:
    """Build the q-factorization graph of the given multiset of factors.

    Inputs that are only a pre-factorization (some same-color pair coalesces)
    are normalized through q_factorize first and flagged in the result.

    Every element of r_set(i, r, j, s) is at most r + s + d(i, j) + 2 * reach
    <= r + s + n - 1, so a tail of weight r only needs the heads whose
    exponent lies at most r + (largest weight) + n - 1 below its own.
    """
    factors = list(factors)
    for f in factors:
        diagram.check_node(f.color)
    vertices, refactorized = normalize(factors)
    within = _exponent_window(vertices)
    slack = max((v.weight for v in vertices), default=0) + diagram.n - 1
    arrows = []
    for t, u in enumerate(vertices):
        for h in within(u.exponent - u.weight - slack, u.exponent - 1):
            v = vertices[h]
            gap = u.exponent - v.exponent
            if gap in r_set(diagram, u.color, u.weight, v.color, v.weight):
                arrows.append(Arrow(t, h, gap))
    return QFactGraph(diagram, vertices, tuple(arrows), refactorized)


def classify(g: QFactGraph) -> ShapeClass:
    """Shape tag of the graph, finest applicable tag first."""
    if not g.vertices:
        raise ValueError("cannot classify an empty graph")
    comps = g.components()
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
    if len(g.arrows) == n - 1:  # connected, so a tree (see QFactGraph.is_tree)
        return ShapeClass(TREE, comps)
    return ShapeClass(OTHER, comps)
