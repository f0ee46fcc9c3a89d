"""Independent closed forms used to generate inputs and to check outputs.

Nothing here imports qfgraph.  Every predicate is re-derived from the
type-A formulas the package documents, so a checker built on this module
does not share code with the program it checks.

A factor is a tuple (color, exponent, weight); its q-string is the roots
exponent + weight - 1 - 2k for k in 0 .. weight - 1.
"""

from __future__ import annotations

from collections import Counter


def reach(n: int, i: int, j: int) -> int:
    """Distance from the hull [min(i,j), max(i,j)] to the boundary of [1, n]."""
    return min(min(i, j) - 1, n - max(i, j))


def in_rset(n: int, i: int, r: int, j: int, s: int, m: int) -> bool:
    """m > 0 lies in { r + s + d - 2p : -reach <= p < min(r, s) }."""
    base = r + s + abs(i - j)
    if m <= 0 or (base - m) % 2:
        return False
    return base - 2 * min(r, s) + 2 <= m <= base + 2 * reach(n, i, j)


def rset_size(n: int, i: int, r: int, j: int, s: int) -> int:
    return min(r, s) + reach(n, i, j)


def rset_elements(n: int, i: int, r: int, j: int, s: int) -> range:
    base = r + s + abs(i - j)
    return range(base - 2 * min(r, s) + 2, base + 2 * reach(n, i, j) + 1, 2)


def linked(u: tuple, v: tuple) -> bool:
    """Two same-color q-strings coalesce: same parity and center gap in
    |r - s| + 2 .. r + s."""
    (cu, eu, ru), (cv, ev, rv) = u, v
    if cu != cv:
        return False
    gap = abs(eu - ev)
    return (gap - ru - rv) % 2 == 0 and abs(ru - rv) + 2 <= gap <= ru + rv


def dissociate(factors) -> bool:
    by_color: dict[int, list] = {}
    for f in factors:
        by_color.setdefault(f[0], []).append(f)
    for group in by_color.values():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                if linked(group[a], group[b]):
                    return False
    return True


def roots(factors) -> Counter:
    out: Counter = Counter()
    for c, e, w in factors:
        for k in range(w):
            out[(c, e + w - 1 - 2 * k)] += 1
    return out


def arrow_gap(n: int, u: tuple, v: tuple) -> int | None:
    """Label of the arrow u -> v, or None: the gap e_u - e_v must be a
    positive element of the whole-diagram reducibility set."""
    gap = u[1] - v[1]
    if gap > 0 and in_rset(n, u[0], u[2], v[0], v[2], gap):
        return gap
    return None


def adjacency(n: int, factors) -> tuple[list[set], dict]:
    """Undirected adjacency lists and the arrow map {(tail, head): gap}."""
    k = len(factors)
    adj = [set() for _ in range(k)]
    arrows = {}
    for a in range(k):
        for b in range(k):
            if a != b:
                g = arrow_gap(n, factors[a], factors[b])
                if g is not None:
                    arrows[(a, b)] = g
                    adj[a].add(b)
                    adj[b].add(a)
    return adj, arrows


def component_count(adj) -> int:
    seen = set()
    count = 0
    for start in range(len(adj)):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def is_tree(adj) -> bool:
    edges = sum(len(a) for a in adj) // 2
    return component_count(adj) == 1 and edges == len(adj) - 1


def cut_simple(n: int, iso: tuple, mid: tuple, other: tuple) -> bool:
    """Is the cut isolating `iso` in the alternating line iso - mid - other
    simple?  The string-parameter system stated in the docstring of
    qfgraph.decision.alt_line_conditions_ineq, written out afresh."""
    i, r, m = iso[0], iso[2], abs(iso[1] - mid[1])
    j, s = mid[0], mid[2]
    jp, sp, mp = other[0], other[2], abs(other[1] - mid[1])
    p = (r + s + abs(i - j) - m) // 2
    pp = (s + sp + abs(j - jp) - mp) // 2
    lo, hi = min(i, j), max(i, j)
    offset = max(lo - jp, jp - hi, 0)
    if p <= 0:
        if -pp > -p - offset:
            return False
        if not p + offset <= r + pp - 1 < min(r, sp):
            return False
        return r <= sp
    if not lo <= jp <= hi or pp < 0:
        return False
    if not 0 <= r - p + pp - 1 < min(r, sp):
        return False
    return r <= sp or p != pp


def alternating_triples(factors, adj, arrows):
    """Induced three-vertex lines a - mid - b whose two arrows both leave or
    both enter mid.  Yields (a, mid, b) with a < b."""
    for mid in range(len(factors)):
        nbrs = sorted(adj[mid])
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                a, b = nbrs[x], nbrs[y]
                if b in adj[a]:
                    continue
                out_a, out_b = (mid, a) in arrows, (mid, b) in arrows
                if out_a == out_b:
                    yield a, mid, b


def simple_triples(n: int, factors, adj, arrows) -> list[tuple[int, int, int]]:
    """Alternating triples on which the cut isolating either end is simple."""
    out = []
    for a, mid, b in alternating_triples(factors, adj, arrows):
        fa, fm, fb = factors[a], factors[mid], factors[b]
        if cut_simple(n, fa, fm, fb) or cut_simple(n, fb, fm, fa):
            out.append((a, mid, b))
    return out


def label(f: tuple) -> str:
    return f"{f[0]}^{f[2]}@{f[1]}"


# -- sweep case counts from the closed-form set definitions ------------------

def _sl2(r: int, s: int, m: int) -> bool:
    return (m - r - s) % 2 == 0 and abs(r - s) + 2 <= m <= r + s


def linked_pairs(n: int, max_weight: int):
    """(i, r, j, s, m): m in the whole-diagram set, minus same-color merges."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for r in range(1, max_weight + 1):
                for s in range(1, max_weight + 1):
                    for m in rset_elements(n, i, r, j, s):
                        if i == j and _sl2(r, s, m):
                            continue
                        yield i, r, j, s, m


def count_alt_line_configs(max_rank: int, max_weight: int) -> int:
    total = 0
    for n in range(1, max_rank + 1):
        second = {}
        for j in range(1, n + 1):
            for s in range(1, max_weight + 1):
                second[(j, s)] = [(jp, sp, mp)
                                  for jp in range(1, n + 1)
                                  for sp in range(1, max_weight + 1)
                                  for mp in rset_elements(n, j, s, jp, sp)
                                  if not (j == jp and _sl2(s, sp, mp))]
        for i, r, j, s, m in linked_pairs(n, max_weight):
            for jp, sp, mp in second[(j, s)]:
                gap = abs(m - mp)
                if in_rset(n, i, r, jp, sp, gap):
                    continue
                if i == jp and _sl2(r, sp, gap):
                    continue
                total += 1
    return total


def count_linked_pairs(max_rank: int, max_weight: int) -> int:
    return sum(1 for n in range(1, max_rank + 1)
               for _ in linked_pairs(n, max_weight))


def count_dominant_pairs(max_rank: int) -> int:
    return sum(rset_size(n, i, 1, j, 1)
               for n in range(1, max_rank + 1)
               for i in range(1, n + 1) for j in range(1, n + 1))


def count_redsets_cases(max_rank: int, max_weight: int) -> int:
    """n^3 hull-distance triples, then per (i, j, r, s) one case per window
    containing the hull and one per element of the whole-diagram set."""
    total = 0
    for n in range(1, max_rank + 1):
        total += n ** 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lo, hi = min(i, j), max(i, j)
                windows = lo * (n - hi + 1)
                for r in range(1, max_weight + 1):
                    for s in range(1, max_weight + 1):
                        total += windows + rset_size(n, i, r, j, s)
    return total


def dual_pairs_simple(n: int, factors, adj) -> bool:
    """For every non-adjacent ordered pair (u, v): the right dual of u over the
    whole diagram, color n + 1 - i at exponent e - (n + 1), against v has its
    exponent gap outside the reducibility set."""
    for a, (i, e, r) in enumerate(factors):
        for b, (j, f, s) in enumerate(factors):
            if a != b and b not in adj[a] and \
                    in_rset(n, n + 1 - i, r, j, s, abs(e - (n + 1) - f)):
                return False
    return True
