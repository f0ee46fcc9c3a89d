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
from itertools import repeat

from .dynkin import DynkinA
from .drinfeld import KRFactor, normalize

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
    __slots__ = ("diagram", "vertices", "was_refactorized", "_keys", "out",
                 "into", "_components")

    def __init__(self, diagram: DynkinA, vertices: tuple[KRFactor, ...],
                 keys: list[int], was_refactorized: bool) -> None:
        self.diagram, self.vertices, self.was_refactorized = diagram, vertices, was_refactorized
        # The arrow (t, h) as the integer key t * V + h; build_graph sorts them.
        self._keys = set(keys)
        # out[v] and into[v] list v's heads and tails, ascending for sorted
        # keys.  They stay lists: a tuple per vertex, freed with every
        # graph, piles up in CPython's tuple free lists and raises peak RSS.
        out: list[list[int]] = [[] for _ in vertices]
        into: list[list[int]] = [[] for _ in vertices]
        for t, h in map(divmod, keys, repeat(len(vertices))):
            out[t].append(h)
            into[h].append(t)
        self.out, self.into = tuple(out), tuple(into)
        # One walk per graph, shared by classify and is_tree.
        self._components = self.components()

    # -- basic queries ------------------------------------------------------

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        """The arrows in (tail, head) order with their gaps, made from `out` on each read."""
        e = [f.exponent for f in self.vertices]
        return tuple([Arrow(t, h, e[t] - e[h]) for t, heads in enumerate(self.out) for h in heads])

    def __len__(self) -> int:
        return len(self.vertices)

    def adjacent(self, u: int, v: int) -> bool:
        size = len(self.vertices)
        return u * size + v in self._keys or v * size + u in self._keys

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Weakly connected components as sorted vertex-id tuples; one walk."""
        out, into = self.out, self.into
        seen = [False] * len(out)
        comps = []
        for start in range(len(out)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for v in comp:  # grows while it is read: a breadth-first walk
                for neighbors in (out[v], into[v]):
                    for w in neighbors:
                        if not seen[w]:
                            seen[w] = True
                            comp.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_tree(self) -> bool:
        """Connected with one arrow fewer than vertices.

        Counting keys counts edges: build_graph joins a pair only in the
        direction of its positive exponent gap, so no pair is joined twice.
        """
        return len(self._keys) == len(self) - 1 and len(self._components) == 1

    def exponent_order(self) -> tuple[int, ...]:
        """Vertex ids by descending exponent, ties in id order."""
        return tuple(sorted(range(len(self.vertices)),
                            key=[-f.exponent for f in self.vertices].__getitem__))

    def is_totally_ordered(self) -> bool:
        """All vertex pairs comparable in the arrow-generated partial order.

        Arrows run from higher to lower exponent, so a total order can only
        be the exponent order, and no vertex lies strictly between two
        neighbors in it: the order is total exactly when each consecutive
        pair is joined by an arrow.  Equal exponents are never joined.
        """
        order, size, keys = self.exponent_order(), len(self.vertices), self._keys
        return all(u * size + v in keys for u, v in zip(order, order[1:]))

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
# A build is refused before any pair is tested, once the partner runs add up
# to one over the cap: about 0.08 s and 18 MB peak for a `prime` process
# (1800 factors, one per color at rank 1800; one core of a 2-vCPU Intel Xeon
# VM, Python 3.11).
MAX_BUILD_PAIRS = 5 * 10**5


def _overlaps(factors, left, right):
    """The partner runs of every id pair (a, b) of one parity class whose
    closed intervals left(factors[a]) and right(factors[b]) overlap.

    Every element of r_set(i, r, j, s) has the parity of r + s + i + j, so an
    arrow or a dual pair joins only factors of one class
    (exponent + weight + color) mod 2.  Two closed intervals overlap exactly
    when one starts inside the other; on a tie the right one counts as
    starting inside the left one.  So each side is sorted by start once per
    class, and an interval's partners are one bisect slice of the other
    side: O(V log V + K) for K pairs, whatever the weights.

    Yields, lazily, a run (lefts, rights) of id tuples for each interval that
    has partners: ((a,), bs) for a left interval a, (as_, (b,)) for a right
    one b.  Each (left id, right id) of a run's product is a pair, and
    expanded in order, the runs give every pair exactly once.
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
            bs = rids[bisect_left(rstarts, lo):bisect_right(rstarts, hi)]
            if bs:
                yield (a,), bs
        for lo, hi, b in rights:
            as_ = lids[bisect_right(lstarts, lo):bisect_right(lstarts, hi)]
            if as_:
                yield as_, (b,)


def build_graph(factors, diagram: DynkinA) -> QFactGraph:
    """Build the q-factorization graph of the given multiset of factors.

    Inputs that are only a pre-factorization (some same-color pair coalesces)
    are passed through normalize first and flagged in the result.

    Every element of r_set(i, r, j, s) is at most r + s + d(i, j) + 2 * reach
    <= r + s + n - 1, so a tail of weight r can only reach a head of its
    parity class whose exponent lies 1 to r + s + n - 1 below its own: the
    tail's [e - r, e - 1] overlaps the head's [e, e + s + n - 1] (see
    _overlaps).  An input with more than MAX_BUILD_PAIRS such pairs is
    refused with ValueError before any pair is tested.

    Within a parity class, the gap m = e - e' of a tail (i, e, r) over a head
    (j, e', s) lies in r_set(i, r, j, s) exactly when
    |r - s| + |i - j| < m <= r + s - 2 + min(i + j, 2n + 2 - i - j).  In the
    rotated coordinates (e - r - i, e - r + i, e + r - i, e + r + i) of each
    factor, that is four strict rises from head to tail, the tail's first
    coordinate at least 2 below the head's last and its second at most 2n
    above the head's third: integer comparisons, with no set and no call per
    pair.  The graph is made from the arrows' keys t * V + h, sorted.
    """
    vertices, refactorized = normalize(factors)
    # normalize keeps the colors and sorts by color first: the ends hold both extremes.
    for f in vertices[:1] + vertices[-1:]:
        diagram.check_node(f.color)
    n, size = diagram.n, len(vertices)
    runs, examined = [], 0
    for tails, heads in _overlaps(vertices, lambda f: (f.exponent - f.weight, f.exponent - 1),
                                  lambda f: (f.exponent, f.exponent + f.weight + n - 1)):
        examined += len(tails) * len(heads)
        if examined > MAX_BUILD_PAIRS:
            raise ValueError(f"the graph build would examine more than "
                             f"{MAX_BUILD_PAIRS} vertex pairs")
        runs.append((tails, heads))
    coords = [(e - r - i, e - r + i, e + r - i, e + r + i) for i, e, r in vertices]
    two_n, keys = 2 * n, []
    for tails, heads in runs:
        for t in tails:
            at, bt, ct, dt = coords[t]
            for h in heads:
                ah, bh, ch, dh = coords[h]
                if ah < at <= dh - 2 and bh < bt <= ch + two_n and ch < ct and dh < dt:
                    keys.append(t * size + h)
    # Sorted keys keep every neighbor list sorted (see decision._first_simple_cut).
    keys.sort()
    return QFactGraph(diagram, vertices, keys, refactorized)


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
        if len(g._keys) == 3:
            return ShapeClass(TRIANGLE, comps)
        middle = next(v for v in range(3) if len(g.out[v]) + len(g.into[v]) == 2)
        if len(g.out[middle]) == 1:  # one arrow in, one out
            return ShapeClass(MONOTONIC_LINE3, comps, g.exponent_order())
        ends = [v for v in range(3) if v != middle]
        return ShapeClass(ALTERNATING_LINE3, comps, (ends[0], middle, ends[1]))
    if g.is_totally_ordered():
        return ShapeClass(TOTALLY_ORDERED, comps)
    if g.is_tree():
        return ShapeClass(TREE, comps)
    return ShapeClass(OTHER, comps)
