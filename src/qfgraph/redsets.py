"""Reducibility sets for pairs of Kirillov-Reshetikhin factors in type A.

The set attached to colors (i, j), weights (r, s) and a window J collects the
positive exponent gaps m for which the ordered tensor product of the two KR
modules (restricted to J) is reducible.  Its type-A closed form is

    { r + s + d(i,j) - 2p : -d([i,j], boundary of J) <= p < min(r, s) }.

As p runs over its window the elements form one step-2 progression.  The
engine tests a gap m through string_parameter, which returns its p or None
without building a set (no gap m <= 0 is a member).  r_set returns the set as
a bare increasing `range`, which `qfgraph rset` prints and the sweeps check
the engine against, and alone states the input checks and their errors;
string_parameter calls it only to raise them.  r_set over DynkinA(1) is the
rank-one set, which decides whether two same-color q-strings coalesce.
"""

from __future__ import annotations

from .dynkin import DynkinA, Interval


def r_set(diagram: DynkinA, i: int, r: int, j: int, s: int,
          window: Interval | None = None) -> range:
    """Reducibility set of the colored pair (i, r), (j, s) over the window.

    The window defaults to the whole diagram and must lie within the rank;
    both colors must lie in the window and both weights must be positive.
    """
    lo, hi = (1, diagram.n) if window is None else (window.lo, window.hi)
    if hi > diagram.n:
        raise ValueError(f"interval [{lo}, {hi}] exceeds rank {diagram.n}")
    a, b = (i, j) if i <= j else (j, i)
    if not (lo <= a and b <= hi):
        raise ValueError(f"colors ({i}, {j}) not inside window [{lo}, {hi}]")
    if r < 1 or s < 1:
        raise ValueError(f"weights must be positive, got ({r}, {s})")
    below, above = a - lo, hi - b
    base = r + s + b - a
    return range(base - 2 * (r if r < s else s) + 2,
                 base + 2 * (below if below < above else above) + 1, 2)


def string_parameter(diagram: DynkinA, i: int, r: int, j: int, s: int, m: int,
                     window: Interval | None = None) -> int | None:
    """Solve m = r + s + d(i,j) - 2p for p inside the admissible window.

    Returns None (rather than raising) on parity mismatch or when p falls
    outside [-d([i,j], boundary), min(r, s)), so callers can use this as a
    membership probe.  A valid input builds no set; an invalid window, color
    or weight raises r_set's error.
    """
    lo, hi = (1, diagram.n) if window is None else (window.lo, window.hi)
    a, b = (i, j) if i <= j else (j, i)
    if hi > diagram.n or not (lo <= a and b <= hi) or r < 1 or s < 1:
        r_set(diagram, i, r, j, s, window)  # raises the input error
    twice_p = r + s + b - a - m
    if twice_p % 2 != 0:
        return None
    p = twice_p // 2
    if -p <= a - lo and -p <= hi - b and p < r and p < s:
        return p
    return None


def minimal_window(diagram: DynkinA, i: int, r: int, j: int, s: int,
                   m: int) -> Interval | None:
    """Smallest interval J containing i and j with m in the J-restricted set.

    With p the string parameter of m over the whole diagram: for p >= 0 the
    hull of i and j already works; for p < 0 the hull must be widened by -p
    on each side.  Returns None when m is not in the unrestricted set.
    """
    p = string_parameter(diagram, i, r, j, s, m)
    if p is None:
        return None
    widen = -p if p < 0 else 0
    lo, hi = (i, j) if i <= j else (j, i)
    return Interval(lo - widen, hi + widen)
