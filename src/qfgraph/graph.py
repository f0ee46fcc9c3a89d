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


# Most candidate (tail, head) pairs build_graph examines before it refuses
# the input, so also the most arrows a graph can have.  The largest build of
# any fixture, test or benchmark input examines 2669.  A refused build has
# spent about 1.2 s and 100 MB (1500 factors in one window, one per color at
# rank 1500; one core of a 2-vCPU Intel Xeon VM, Python 3.11).
MAX_BUILD_PAIRS = 5 * 10**5


def _exponent_groups(factors, n: int):
    """A function taking (v, lo, hi, above) to sorted ids of v's parity class.

    Every element of r_set(i, r, j, s) has the parity of r + s + i + j, so
    an arrow or a dual pair joins only factors of one parity class
    (exponent + weight + color) mod 2.  Each class is split into groups by
    weight.bit_length() and each group is sorted by exponent once.  A group
    whose largest weight is w has slack w + n - 1, and the query returns
    the ids of v's class with exponent in [lo - slack, hi + above * slack],
    each group with its own slack: a factor of weight 10^9 widens only its
    own group.  The cost of a query grows with the number of ids it returns
    and the number of groups, not with the number of factors.
    """
    exponents = [f.exponent for f in factors]
    parity = [(f.exponent + f.weight + f.color) % 2 for f in factors]
    groups: dict[tuple[int, int], list] = {}  # key -> [exponents, ids, weight]
    for v in sorted(range(len(factors)), key=exponents.__getitem__):
        w = factors[v].weight
        group = groups.get((parity[v], w.bit_length()))
        if group is None:
            groups[parity[v], w.bit_length()] = [[exponents[v]], [v], w]
        else:
            group[0].append(exponents[v])
            group[1].append(v)
            if w > group[2]:
                group[2] = w
    classes: tuple[list, list] = ([], [])
    for (p, _), (exps, ids, w) in groups.items():
        classes[p].append((exps, ids, w + n - 1))

    def within(v: int, lo: int, hi: int, above: int) -> list[int]:
        found: list[int] = []
        for exps, ids, slack in classes[parity[v]]:
            found += ids[bisect_left(exps, lo - slack):
                         bisect_right(exps, hi + above * slack)]
        found.sort()
        return found

    return within


def build_graph(factors, diagram: DynkinA) -> QFactGraph:
    """Build the q-factorization graph of the given multiset of factors.

    Inputs that are only a pre-factorization (some same-color pair coalesces)
    are passed through normalize first and flagged in the result.

    Every element of r_set(i, r, j, s) is at most r + s + d(i, j) + 2 * reach
    <= r + s + n - 1, so a tail of weight r only needs the heads of its
    parity class whose exponent lies at most r + s + n - 1 below its own
    (see _exponent_groups).  Each reducibility set is computed once per
    build.  An input whose scan would examine more than MAX_BUILD_PAIRS
    candidate heads is refused with ValueError.
    """
    factors = list(factors)
    for f in factors:
        diagram.check_node(f.color)
    vertices, refactorized = normalize(factors)
    within = _exponent_groups(vertices, diagram.n)
    sides = [(v.color, v.weight) for v in vertices]
    sets: dict[tuple[int, int], dict[tuple[int, int], range]] = {}
    examined = 0
    arrows = []
    for t, u in enumerate(vertices):
        e, r = u.exponent, u.weight
        heads = within(t, e - r, e - 1, 0)
        examined += len(heads)
        if examined > MAX_BUILD_PAIRS:
            raise ValueError(f"the graph build would examine more than "
                             f"{MAX_BUILD_PAIRS} vertex pairs")
        row = sets.get(sides[t])
        if row is None:
            row = sets[sides[t]] = {}
        for h in heads:
            rs = row.get(sides[h])
            if rs is None:
                rs = row[sides[h]] = r_set(diagram, *sides[t], *sides[h])
            gap = e - vertices[h].exponent
            if gap in rs:
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
