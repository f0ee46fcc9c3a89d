"""Geometry of the type-A Dynkin diagram.

Nodes are identified with {1, ..., n} so that d(i, j) = |i - j|.  Connected
subdiagrams are closed integer intervals.  Everything here is exact integer
arithmetic on immutable values.
"""

from __future__ import annotations


class Interval:
    """Closed interval [lo, hi] of nodes; intervals compare by identity."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi
        self.__post_init__()  # through the class: the benchmark counts calls

    def __post_init__(self) -> None:
        if self.lo < 1 or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo}, hi={self.hi})"

    def reflect(self, i: int) -> int:
        """Image of node i under the longest Weyl element of this interval.

        For type A this is the reflection through the interval midpoint; it
        is an involution fixing the midpoint when the length is odd.
        """
        if not self.lo <= i <= self.hi:
            raise ValueError(f"node {i} outside interval [{self.lo}, {self.hi}]")
        return self.lo + self.hi - i

    def dual_coxeter(self) -> int:
        """Dual Coxeter number of the type-A diagram on this interval."""
        return self.hi - self.lo + 2


class DynkinA:
    """Type-A Dynkin diagram of rank n with node set {1, ..., n}."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        self.n = n

    def check_node(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"node {i} out of range for rank {self.n}")
