"""Column-tableau q-characters of fundamental modules in type A.

An l-weight is a Laurent monomial in the fundamental weights omega_{i, q^c},
stored as an exact multiplicity map.  The q-character of the i-th fundamental
module is the sum over strictly increasing columns of height i with entries
in {1, ..., n+1}; every monomial appears with multiplicity one.  From these
we compute the dominant l-weights of a product of two fundamentals and the
resulting socle / head data.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple

from .dynkin import DynkinA
from .drinfeld import KRFactor
from .redsets import r_set, string_parameter

# Largest number C(n+1, i) * C(n+1, j) of l-weight pairs the brute-force
# product may multiply out.  The dominant-pair sweep (rank <= 6) needs at
# most 1225; without a bound, rank 20 would never finish.
MAX_PRODUCT_PAIRS = 10**6


class LWeight(namedtuple("LWeight", "entries")):
    """Laurent monomial (color, exponent) -> multiplicity, zeros dropped.

    `entries` is the sorted tuple of ((color, exponent), multiplicity) pairs.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, data: dict) -> "LWeight":
        return cls(tuple(sorted((k, v) for k, v in data.items() if v != 0)))

    @classmethod
    def fundamental(cls, color: int, exponent: int, power: int) -> "LWeight":
        return cls.from_dict({(color, exponent): power})

    def as_dict(self) -> dict:
        return dict(self.entries)

    def __mul__(self, other: "LWeight") -> "LWeight":
        data = self.as_dict()
        for key, mult in other.entries:
            data[key] = data.get(key, 0) + mult
        return LWeight.from_dict(data)

    def shift(self, delta: int) -> "LWeight":
        """Translate every exponent; rebasing the formal spectral parameter."""
        return LWeight(tuple(sorted((((c, e + delta), v) for (c, e), v in self.entries))))

    def to_json(self) -> list:
        return [{"color": c, "exponent": e, "power": v} for (c, e), v in self.entries]


def fundamental_qchar(diagram: DynkinA, i: int) -> tuple[LWeight, ...]:
    """All l-weights of the i-th fundamental module, based at exponent 0.

    One monomial per strictly increasing column of height i with entries in
    {1, ..., n+1}, supported at s = 1 - i: box j with entry b sits at support
    t = s + 2(i - j) and contributes omega_{b, q^{t+b-1}} * omega_{b-1,
    q^{t+b}}^{-1}, where omega_0 and omega_{n+1} are trivial.  The column
    (1, ..., i) gives the highest l-weight omega_{i, q^0}.
    """
    diagram.check_node(i)
    n = diagram.n
    out = []
    for column in itertools.combinations(range(1, n + 2), i):
        data: Counter = Counter()
        for j, entry in enumerate(column, start=1):
            support = 1 - i + 2 * (i - j)
            if entry <= n:
                data[entry, support + entry - 1] += 1
            if entry > 1:
                data[entry - 1, support + entry] -= 1
        out.append(LWeight.from_dict(data))
    return tuple(out)


def _fundamental_pre(diagram: DynkinA, i: int, j: int, m: int) -> int:
    """Validate m = 2 + d(i,j) - 2p with p <= 0 admissible; return p."""
    p = string_parameter(diagram, i, 1, j, 1, m)
    if p is None:
        raise ValueError(
            f"gap {m} is not an admissible arrow gap for fundamentals ({i}, {j})")
    return p


def dominant_product_lweights(diagram: DynkinA, i: int, j: int,
                              m: int) -> frozenset[LWeight]:
    """Dominant l-weights of the product of two linked fundamental modules.

    Computed by brute force over the pairwise products of the two
    q-characters (the j-side rebased at exponent m) that can be dominant,
    those whose right monomial is positive wherever the left one is negative,
    summed as plain multiplicity maps and filtered for dominance; only the
    dominant ones become LWeights.  The closed two-element form lives in
    socle_head; tests hold the two routes equal.  Products of more than
    MAX_PRODUCT_PAIRS pairs are refused.
    """
    _fundamental_pre(diagram, i, j, m)
    # Both binomials are at least n + 1, so a large rank is refused before
    # they are computed: their digits grow with n.
    size = diagram.n + 1
    if size * size > MAX_PRODUCT_PAIRS or \
            math.comb(size, i) * math.comb(size, j) > MAX_PRODUCT_PAIRS:
        raise ValueError(f"the product of fundamentals {i} and {j} at rank "
                         f"{diagram.n} has more than {MAX_PRODUCT_PAIRS} l-weight pairs")
    left = [w.as_dict() for w in fundamental_qchar(diagram, i)]
    right = [w.shift(m).entries for w in fundamental_qchar(diagram, j)]
    positive_at: dict = {}
    for index, b in enumerate(right):
        for key, mult in b:
            if mult > 0:
                positive_at.setdefault(key, set()).add(index)
    dominant = set()
    for a in left:
        negative = [positive_at.get(key, set()) for key, mult in a.items() if mult < 0]
        for index in set.intersection(*negative) if negative else range(len(right)):
            b = right[index]
            data = a.copy()
            for key, mult in b:
                data[key] = data.get(key, 0) + mult
            if min(data.values(), default=0) >= 0:
                dominant.add(LWeight.from_dict(data))
    return frozenset(dominant)


def _fundamental_product(factors) -> LWeight:
    """The l-weight of a product of fundamental factors (all of weight 1)."""
    return LWeight.from_dict(Counter((f.color, f.exponent) for f in factors))


class SocleHead(namedtuple("SocleHead", "socle head dropped_trivial p")):
    """Closed-form socle pair and head of a reducible fundamental product."""

    __slots__ = ()

    def socle_lweight(self) -> LWeight:
        return _fundamental_product(self.socle)

    def head_lweight(self) -> LWeight:
        return _fundamental_product(self.head)

    def to_json(self) -> dict:
        return {
            "socle": [f.to_json() for f in self.socle],
            "head": [f.to_json() for f in self.head],
            "dropped_trivial": self.dropped_trivial,
            "string_parameter": self.p,
        }


def socle_head(diagram: DynkinA, i: int, j: int, m: int) -> SocleHead:
    """Socle pair and head of the product of fundamentals i at 0 and j at m.

    The head is omega_{i, 0} omega_{j, m}; the socle is the pair of
    fundamental factors with colors min+p-1 and max+1-p at the stated
    exponents, trivial colors (0 or n+1) silently dropped and counted.
    The socle pair is checked to be a simple tensor product through the
    reducibility sets; a failure would be an internal error.
    """
    p = _fundamental_pre(diagram, i, j, m)
    n = diagram.n
    i_minus, i_plus = min(i, j), max(i, j)
    lo_color = i_minus + p - 1
    hi_color = i_plus + 1 - p
    lo_factor = KRFactor(lo_color, 1 - p + i - i_minus, 1) if lo_color >= 1 else None
    hi_factor = KRFactor(hi_color, 1 - p + j - i_minus, 1) if hi_color <= n else None
    socle = tuple(f for f in (lo_factor, hi_factor) if f is not None)
    dropped = 2 - len(socle)
    if lo_factor is not None and hi_factor is not None:
        if abs(i - j) in r_set(diagram, lo_color, 1, hi_color, 1):
            raise AssertionError("socle pair unexpectedly fails the simplicity test")
    head = (KRFactor(i, 0, 1), KRFactor(j, m, 1))
    return SocleHead(socle, head, dropped, p)
