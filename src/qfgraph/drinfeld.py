"""Drinfeld polynomials over the integer exponent lattice.

A polynomial is a finite multiset of fundamental roots (color, exponent),
where the exponent c stands for the spectral parameter a * q^c with a formal
base a that is never instantiated: only exponent differences carry meaning.
A Kirillov-Reshetikhin factor of weight r is the q-string of r roots spaced
by 2 and centered at its exponent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dynkin import DynkinA, Interval
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
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (color, exponent, weight)):
            raise ValueError(f"factor fields must be integers: {data!r}")
        return cls(color, exponent, weight)


@dataclass(frozen=True)
class DrinfeldPoly:
    """Multiset of fundamental roots (color, exponent), kept sorted."""

    roots: tuple[tuple[int, int], ...]

    @classmethod
    def from_roots(cls, roots) -> "DrinfeldPoly":
        return cls(tuple(sorted((int(c), int(e)) for c, e in roots)))

    @classmethod
    def unit(cls) -> "DrinfeldPoly":
        return cls(())

    def __mul__(self, other: "DrinfeldPoly") -> "DrinfeldPoly":
        return DrinfeldPoly(tuple(sorted(self.roots + other.roots)))

    def colors(self) -> tuple[int, ...]:
        return tuple(sorted({c for c, _ in self.roots}))

    def exponents_of(self, color: int) -> list[int]:
        return [e for c, e in self.roots if c == color]


def expand(factor: KRFactor) -> DrinfeldPoly:
    """Fundamental-root multiset of a single KR factor."""
    return DrinfeldPoly.from_roots((factor.color, e) for e in factor.roots())


def expand_all(factors) -> DrinfeldPoly:
    poly = DrinfeldPoly.unit()
    for f in factors:
        poly = poly * expand(f)
    return poly


def _merge_once(segments: list[tuple[int, int]], rng: random.Random | None) -> bool:
    """Coalesce one linked pair of q-strings in place; False when none is left.

    Segments are (lo, hi) spans on the exponent lattice with step 2.  Two
    strings of weights r, s and center gap g are linked exactly when g lies
    in the rank-one reducibility set of (r, s); they are then replaced by the
    span union and, if they overlap, the span intersection (so the root
    multiset is preserved).
    """
    order = list(range(len(segments)))
    if rng is not None:
        rng.shuffle(order)
    for pos_a in range(len(order)):
        for pos_b in range(pos_a + 1, len(order)):
            a, b = order[pos_a], order[pos_b]
            lo_a, hi_a = segments[a]
            lo_b, hi_b = segments[b]
            if (lo_a - lo_b) % 2 != 0:
                continue
            wa = (hi_a - lo_a) // 2 + 1
            wb = (hi_b - lo_b) // 2 + 1
            gap = abs((lo_a + hi_a) - (lo_b + hi_b)) // 2
            if not sl2_set(wa, wb).contains_signed(gap):
                continue
            union = (min(lo_a, lo_b), max(hi_a, hi_b))
            inter_lo, inter_hi = max(lo_a, lo_b), min(hi_a, hi_b)
            for idx in sorted((a, b), reverse=True):
                del segments[idx]
            segments.append(union)
            if inter_lo <= inter_hi:
                segments.append((inter_lo, inter_hi))
            return True
    return False


def q_factorize(poly: DrinfeldPoly, rng: random.Random | None = None) -> tuple[KRFactor, ...]:
    """Unique coarsest factorization of a root multiset into q-strings.

    No two same-color output factors have their center gap in the rank-one
    reducibility set of their weights, and the expanded roots of the output
    reproduce the input multiset exactly.  The optional rng only randomizes
    the merge order; the result is order-independent.
    """
    factors: list[KRFactor] = []
    for color in poly.colors():
        segments = [(e, e) for e in poly.exponents_of(color)]
        while _merge_once(segments, rng):
            pass
        for lo, hi in segments:
            factors.append(KRFactor(color, (lo + hi) // 2, (hi - lo) // 2 + 1))
    return tuple(sorted(factors))


def is_dissociate(factors) -> bool:
    """True when no two same-color factors would coalesce into one q-string."""
    factors = list(factors)
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            u, v = factors[a], factors[b]
            if u.color != v.color:
                continue
            if sl2_set(u.weight, v.weight).contains_signed(abs(u.exponent - v.exponent)):
                return False
    return True


def normalize(factors) -> tuple[tuple[KRFactor, ...], bool]:
    """The sorted q-factorization of the product, and whether it differs.

    A dissociate input is already its own q-factorization and is kept as
    given; anything else is expanded into roots and re-factorized.
    """
    factors = tuple(sorted(factors))
    if is_dissociate(factors):
        return factors, False
    return q_factorize(expand_all(factors)), True


def dual(factor: KRFactor, diagram: DynkinA, window: Interval | None = None) -> KRFactor:
    """Highest-weight datum of the right dual module, within the window.

    The color reflects through the window and the exponent drops by the
    window's dual Coxeter number.
    """
    if window is None:
        window = diagram.whole()
    diagram.check_interval(window)
    if factor.color not in window:
        raise ValueError(f"color {factor.color} outside window [{window.lo}, {window.hi}]")
    return KRFactor(window.reflect(factor.color),
                    factor.exponent - window.dual_coxeter(),
                    factor.weight)
