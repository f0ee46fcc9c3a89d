"""Geometry of the type-A Dynkin diagram.

Nodes are identified with {1, ..., n} so that d(i, j) = |i - j|.  Connected
subdiagrams are closed integer intervals.  Everything here is exact integer
arithmetic on immutable values.
"""

from __future__ import annotations


class Interval:
    """Closed interval [lo, hi] of node indices, a connected subdiagram."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi
        self.__post_init__()  # through the class: the benchmark counts calls

    def __post_init__(self) -> None:
        if self.lo < 1 or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    def __eq__(self, other) -> bool:
        return type(other) is Interval and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo}, hi={self.hi})"

    @classmethod
    def hull(cls, i: int, j: int) -> "Interval":
        """Smallest interval containing both i and j."""
        return cls(min(i, j), max(i, j))

    def __contains__(self, node: int) -> bool:
        return self.lo <= node <= self.hi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def reflect(self, i: int) -> int:
        """Image of node i under the longest Weyl element of this interval.

        For type A this is the reflection through the interval midpoint; it
        is an involution fixing the midpoint when the length is odd.
        """
        if i not in self:
            raise ValueError(f"node {i} outside interval [{self.lo}, {self.hi}]")
        return self.lo + self.hi - i

    def dual_coxeter(self) -> int:
        """Dual Coxeter number of the type-A diagram on this interval."""
        return len(self) + 1

    def boundary_distance(self, sub: "Interval") -> int:
        """Distance d(sub, boundary) from a subinterval to this boundary."""
        if not self.contains_interval(sub):
            raise ValueError(
                f"[{sub.lo}, {sub.hi}] is not contained in [{self.lo}, {self.hi}]"
            )
        return min(sub.lo - self.lo, self.hi - sub.hi)


class DynkinA:
    """Type-A Dynkin diagram of rank n with node set {1, ..., n}."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        self.n = n

    def __eq__(self, other) -> bool:  # graphs compare their diagrams
        return type(other) is DynkinA and self.n == other.n

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def check_node(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"node {i} out of range for rank {self.n}")

    def check_interval(self, J: Interval) -> None:
        if J.hi > self.n:
            raise ValueError(f"interval [{J.lo}, {J.hi}] exceeds rank {self.n}")

    def distance(self, i: int, j: int) -> int:
        self.check_node(i)
        self.check_node(j)
        return abs(i - j)

    def hull_distance(self, i: int, j: int, k: int) -> int:
        """Distance from node k to the interval spanned by i and j."""
        self.check_node(i)
        self.check_node(j)
        self.check_node(k)
        lo, hi = (i, j) if i <= j else (j, i)
        return max(lo - k, k - hi, 0)
