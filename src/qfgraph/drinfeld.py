"""Drinfeld polynomials over the integer exponent lattice.

A polynomial is a finite multiset of fundamental roots (color, exponent),
where the exponent c stands for the spectral parameter a * q^c with a formal
base a that is never instantiated: only exponent differences carry meaning.
A Kirillov-Reshetikhin factor of weight r is the q-string of r roots spaced
by 2 and centered at its exponent.
"""

from __future__ import annotations

from collections import namedtuple

from .dynkin import DynkinA


class KRFactor(namedtuple("KRFactor", "color exponent weight")):
    """One Kirillov-Reshetikhin q-factor: color i, center exponent c, weight r.

    A tuple, so factors sort and hash in field order, in C.
    """

    __slots__ = ()

    def __new__(cls, color: int, exponent: int, weight: int) -> "KRFactor":
        if weight < 1:
            raise ValueError(f"weight must be positive, got {weight}")
        if color < 1:
            raise ValueError(f"color must be positive, got {color}")
        return tuple.__new__(cls, (color, exponent, weight))

    def label(self) -> str:
        return f"{self.color}^{self.weight}@{self.exponent}"

    def to_json(self) -> dict:
        return {"color": self.color, "exponent": self.exponent, "weight": self.weight}

    @classmethod
    def from_json(cls, data: dict) -> "KRFactor":
        try:
            color, exponent, weight = data["color"], data["exponent"], data["weight"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"factor object needs color/exponent/weight: {data!r}") from exc
        if not (type(color) is int and type(exponent) is int
                and type(weight) is int):
            raise ValueError(f"factor fields must be integers: {data!r}")
        return cls(color, exponent, weight)


class DrinfeldPoly(namedtuple("DrinfeldPoly", "roots")):
    """Multiset of fundamental roots (color, exponent), kept sorted."""

    __slots__ = ()

    @classmethod
    def from_roots(cls, roots) -> "DrinfeldPoly":
        return cls(tuple(sorted((int(c), int(e)) for c, e in roots)))


def expand_all(factors) -> DrinfeldPoly:
    return DrinfeldPoly.from_roots((f.color, e) for f in factors for e in
                                   range(f.exponent - f.weight + 1, f.exponent + f.weight, 2))


def _peel(spans) -> list[tuple[int, int, int]]:
    """q-factorization of (color, lo, hi) step-2 spans, as sorted key tuples.

    On one color and exponent parity the root multiplicity is a step
    function; the output strings are the maximal runs of {multiplicity >= k}
    for k = 1, 2, ...  Each span adds +1 at lo and -1 at hi + 2, and a walk
    over those points with a stack of open level starts closes [start, x - 2]
    whenever the level drops at x.  The cost depends on the number of spans,
    not on their weights.
    """
    events: dict[int, dict[int, int]] = {}
    for color, lo, hi in spans:
        group = 2 * color + lo % 2  # an int key hashes faster than a pair
        delta = events.get(group)
        if delta is None:
            delta = events[group] = {}
        delta[lo] = delta.get(lo, 0) + 1
        delta[hi + 2] = delta.get(hi + 2, 0) - 1
    keys = []
    for group, delta in events.items():
        color = group // 2
        starts: list[int] = []
        for x in sorted(delta):
            d = delta[x]
            if d > 0:
                starts.extend([x] * d)
            else:
                for _ in range(-d):
                    lo = starts.pop()
                    keys.append((color, (lo + x - 2) // 2, (x - lo) // 2))
    return sorted(keys)


def q_factorize(poly: DrinfeldPoly) -> tuple[KRFactor, ...]:
    """Unique coarsest factorization of a root multiset into q-strings.

    No two same-color output factors have their center gap in the rank-one
    reducibility set of their weights, and the expanded roots of the output
    reproduce the input multiset exactly.
    """
    return normalize([KRFactor(c, e, 1) for c, e in poly.roots])[0]


# Kept as a name because the benchmark's tracer (perfbench/tracer.py) wraps it.
def is_dissociate(factors) -> bool:
    return not normalize(factors)[1]


def normalize(factors) -> tuple[tuple[KRFactor, ...], bool]:
    """The sorted q-factorization of the product, and whether it differs.

    The factorization is unique and the peel's output is dissociate, so the
    input is its own q-factorization exactly when the peel of its spans gives
    back its keys; it is then kept as given.
    """
    factors = tuple(sorted(factors))
    keys = _peel([(c, e - w + 1, e + w - 1) for c, e, w in factors])
    if keys == list(factors):  # a KRFactor equals the tuple of its fields
        return factors, False
    return tuple([KRFactor(*k) for k in keys]), True


def dual(factor: KRFactor, diagram: DynkinA) -> KRFactor:
    """Highest-weight datum of the right dual module over the whole diagram.

    The color i goes to n + 1 - i and the exponent drops by the dual Coxeter
    number n + 1.
    """
    diagram.check_node(factor.color)
    n = diagram.n
    return KRFactor(n + 1 - factor.color, factor.exponent - (n + 1), factor.weight)
