"""Drinfeld polynomials over the integer exponent lattice.

A polynomial is a finite multiset of fundamental roots (color, exponent),
where the exponent c stands for the spectral parameter a * q^c with a formal
base a that is never instantiated: only exponent differences carry meaning.
A Kirillov-Reshetikhin factor of weight r is the q-string of r roots spaced
by 2 and centered at its exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .dynkin import DynkinA
from .redsets import sl2_set


@dataclass(frozen=True, order=True)
class KRFactor:
    """One Kirillov-Reshetikhin q-factor: color i, center exponent c, weight r."""

    color: int
    exponent: int
    weight: int

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.color < 1:
            raise ValueError(f"color must be positive, got {self.color}")

    def roots(self) -> tuple[int, ...]:
        """Exponents of the underlying q-string, highest first."""
        return tuple(self.exponent + self.weight - 1 - 2 * k for k in range(self.weight))

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


# KRFactor's dataclass order, compared in C instead of through __lt__.
_SORT_KEY = attrgetter("color", "exponent", "weight")


@dataclass(frozen=True)
class DrinfeldPoly:
    """Multiset of fundamental roots (color, exponent), kept sorted."""

    roots: tuple[tuple[int, int], ...]

    @classmethod
    def from_roots(cls, roots) -> "DrinfeldPoly":
        return cls(tuple(sorted((int(c), int(e)) for c, e in roots)))


def expand_all(factors) -> DrinfeldPoly:
    return DrinfeldPoly.from_roots((f.color, e) for f in factors for e in f.roots())


def _peel(spans) -> tuple[KRFactor, ...]:
    """q-factorization of a multiset of (color, lo, hi) step-2 spans.

    On one color and exponent parity the root multiplicity is a step
    function; the output strings are the maximal runs of {multiplicity >= k}
    for k = 1, 2, ...  Each span adds +1 at lo and -1 at hi + 2, and a walk
    over those points with a stack of open level starts closes [start, x - 2]
    whenever the level drops at x.  The cost depends on the number of spans,
    not on their weights.
    """
    events: dict[tuple[int, int], dict[int, int]] = {}
    for color, lo, hi in spans:
        delta = events.get((color, lo % 2))
        if delta is None:
            delta = events[color, lo % 2] = {}
        delta[lo] = delta.get(lo, 0) + 1
        delta[hi + 2] = delta.get(hi + 2, 0) - 1
    factors = []
    for (color, _), delta in events.items():
        starts: list[int] = []
        for x in sorted(delta):
            starts.extend([x] * delta[x])
            for _ in range(-delta[x]):
                lo = starts.pop()
                factors.append(KRFactor(color, (lo + x - 2) // 2, (x - lo) // 2))
    return tuple(sorted(factors, key=_SORT_KEY))


def q_factorize(poly: DrinfeldPoly) -> tuple[KRFactor, ...]:
    """Unique coarsest factorization of a root multiset into q-strings.

    No two same-color output factors have their center gap in the rank-one
    reducibility set of their weights, and the expanded roots of the output
    reproduce the input multiset exactly.
    """
    return _peel((c, e, e) for c, e in poly.roots)


def is_dissociate(factors) -> bool:
    """True when no two same-color factors would coalesce into one q-string.

    Every element of sl2_set(r, s) lies in [2, r + s], so of a coalescing
    pair the heavier factor, of weight r, has the other one within 2r of it.
    Each distinct factor scans its own color in (color, exponent) order
    outwards from itself, up to 2r on both sides, and tests the lighter
    partners (of equal weight, only the one above).  Copies never coalesce,
    since a gap of 0 is in no set, and are tested once.
    """
    keys = list(dict.fromkeys(sorted(map(_SORT_KEY, factors))))
    for a, (c, e, r) in enumerate(keys):
        for b in range(a + 1, len(keys)):
            color, exponent, s = keys[b]
            if color != c or exponent - e > 2 * r:
                break
            if s <= r and exponent - e in sl2_set(r, s):
                return False
        for b in range(a - 1, -1, -1):
            color, exponent, s = keys[b]
            if color != c or e - exponent > 2 * r:
                break
            if s < r and e - exponent in sl2_set(r, s):
                return False
    return True


def normalize(factors) -> tuple[tuple[KRFactor, ...], bool]:
    """The sorted q-factorization of the product, and whether it differs.

    A dissociate input is already its own q-factorization and is kept as
    given; anything else is re-factorized from the factors' spans.
    """
    factors = tuple(sorted(factors, key=_SORT_KEY))
    if is_dissociate(factors):
        return factors, False
    return _peel((f.color, f.exponent - f.weight + 1, f.exponent + f.weight - 1)
                 for f in factors), True


def dual(factor: KRFactor, diagram: DynkinA) -> KRFactor:
    """Highest-weight datum of the right dual module over the whole diagram.

    The color i goes to n + 1 - i and the exponent drops by the dual Coxeter
    number n + 1.
    """
    diagram.check_node(factor.color)
    n = diagram.n
    return KRFactor(n + 1 - factor.color, factor.exponent - (n + 1), factor.weight)
