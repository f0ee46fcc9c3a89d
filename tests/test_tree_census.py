"""Every small tree, counted: an exhaustive census of the tree rules.

The trees are grown leaf by leaf, as sweeps.random_tree_graph grows them: a
new leaf is joined to exactly one factor (its gap in their reducibility set)
and linked to no factor of its color (its gap in their rank-one set).  Every
tree of k + 1 vertices drops a leaf to a tree of k, so growing each tree of
k vertices in every way reaches them all; two trees are the same when their
sorted factors agree after the lowest exponent is translated to 0.

Each tree's traced verdict must equal the recursion oracle of
test_tree_rules, and its primality, reality and first rule must survive
both dualities.  The counts and the rule histogram pin the census, and a
brute force over all exponents cross-checks the counts of small trees.

Run as a script, `python tests/test_tree_census.py RANK` takes the census
at one pinned rank, weights up to 2 and up to 4 vertices, checks it the same
way and prints the histogram.
"""

import itertools
import sys
from collections import Counter

from qfgraph.decision import decide
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.graph import build_graph
from qfgraph.redsets import r_set
from qfgraph.sweeps import RANK_ONE, arrow_dual, color_dual

from test_tree_rules import _agree

MAX_WEIGHT, MAX_VERTICES = 2, 4
# Trees per vertex count at weights <= 2, by rank.
COUNTS = {2: {1: 4, 2: 10, 3: 58, 4: 230},
          3: {1: 6, 2: 34, 3: 418, 4: 4048},
          4: {1: 8, 2: 76, 3: 1516, 4: 25072}}
# (vertex count, first rule of the verdict) over the census, by rank.
RULES = {
    2: {(1, "singleton"): 4, (2, "two_vertex"): 10, (3, "alt_line_cut"): 32,
        (3, "totally_ordered"): 26, (4, "totally_ordered"): 68,
        (4, "subgraph_not_prime"): 162},
    3: {(1, "singleton"): 6, (2, "two_vertex"): 34, (3, "alt_line_cut"): 168,
        (3, "alt_line_prime"): 50, (3, "totally_ordered"): 200,
        (4, "totally_ordered"): 1168, (4, "subgraph_not_prime"): 2188,
        (4, "inconclusive"): 636, (4, "dual_pairs_simple"): 56},
    4: {(1, "singleton"): 8, (2, "two_vertex"): 76, (3, "alt_line_cut"): 512,
        (3, "alt_line_prime"): 248, (3, "totally_ordered"): 756,
        (4, "totally_ordered"): 7480, (4, "subgraph_not_prime"): 11688,
        (4, "inconclusive"): 5512, (4, "dual_pairs_simple"): 392},
}


def translated(factors) -> tuple:
    """The sorted factors, with the lowest exponent moved to 0."""
    low = min(f.exponent for f in factors)
    return tuple(sorted(KRFactor(f.color, f.exponent - low, f.weight) for f in factors))


def kinds(n: int) -> list[tuple[int, int]]:
    return [(c, w) for c in range(1, n + 1) for w in range(1, MAX_WEIGHT + 1)]


def grown_trees(n: int) -> dict[int, set]:
    """The trees of rank n, weights <= MAX_WEIGHT, by vertex count."""
    diagram = DynkinA(n)
    level = {(KRFactor(c, 0, w),) for c, w in kinds(n)}
    trees = {1: level}
    for k in range(2, MAX_VERTICES + 1):
        grown = set()
        for factors in level:
            for parent, (color, weight) in itertools.product(factors, kinds(n)):
                for gap in r_set(diagram, color, weight, parent.color, parent.weight):
                    for exponent in (parent.exponent - gap, parent.exponent + gap):
                        linked = any(f.color == color and abs(exponent - f.exponent)
                                     in r_set(RANK_ONE, 1, f.weight, 1, weight)
                                     for f in factors)
                        joined = sum(abs(exponent - f.exponent) in
                                     r_set(diagram, f.color, f.weight, color, weight)
                                     for f in factors)
                        if not linked and joined == 1:
                            grown.add(translated(factors + (KRFactor(color, exponent,
                                                                     weight),)))
        trees[k] = level = grown
    return trees


def brute_force_counts(n: int, max_vertices: int, top: int) -> dict[int, int]:
    """Trees per vertex count among all multisets of factors with exponents
    0..top, the lowest at 0, by an all-pairs r_set test of every pair."""
    diagram = DynkinA(n)
    factors = [KRFactor(c, e, w) for c, w in kinds(n) for e in range(top + 1)]
    counts = {}
    for k in range(1, max_vertices + 1):
        counts[k] = 0
        for chosen in itertools.combinations_with_replacement(factors, k):
            if min(f.exponent for f in chosen) != 0:
                continue
            if any(u.color == v.color and abs(u.exponent - v.exponent)
                   in r_set(RANK_ONE, 1, u.weight, 1, v.weight)
                   for u, v in itertools.combinations(chosen, 2)):
                continue
            edges = [(a, b) for (a, u), (b, v) in itertools.combinations(enumerate(chosen), 2)
                     if abs(u.exponent - v.exponent)
                     in r_set(diagram, u.color, u.weight, v.color, v.weight)]
            reached = {0}
            for _ in range(k):
                reached |= {b for a, b in edges if a in reached}
                reached |= {a for a, b in edges if b in reached}
            counts[k] += len(edges) == k - 1 and len(reached) == k
    return counts


def summary(verdict) -> tuple:
    return verdict.primality, verdict.reality, verdict.certificate[0].rule


def census(n: int) -> Counter:
    """(vertex count, first rule) over every tree of rank n, each verdict
    checked against the recursion oracle and under both dualities."""
    diagram = DynkinA(n)
    rules, witness_fired = Counter(), []
    for k, trees in grown_trees(n).items():
        for factors in sorted(trees):
            g = build_graph(factors, diagram)
            assert g.is_tree() and not g.was_refactorized, factors
            rule = _agree(g, witness_fired)
            want = summary(decide(g))
            for h in (arrow_dual(g), color_dual(g)):
                assert summary(decide(h)) == want, factors
            rules[k, rule] += 1
    assert witness_fired == []
    return rules


def check_rank(n: int) -> Counter:
    """The census at rank n against its pinned counts and rule histogram."""
    rules = census(n)
    counts = Counter()
    for (k, _), count in rules.items():
        counts[k] += count
    assert counts == COUNTS[n], (n, counts)
    assert rules == RULES[n], (n, rules)
    return rules


def test_tree_census_at_ranks_2_and_3():
    'every tree of <= 4 vertices and weights <= 2: pinned counts and rules, oracle and dualities'
    for n in (2, 3):
        check_rank(n)


def test_brute_force_finds_the_grown_trees():
    'the trees of <= 3 vertices are exactly the multisets over exponents 0..12 whose arrows make a tree'
    for n in (2, 3):
        # A 3-vertex tree spans at most 2 (r + s + n - 1) <= 12 exponents.
        assert brute_force_counts(n, 3, 12) == {
            k: len(trees) for k, trees in grown_trees(n).items() if k <= 3}


if __name__ == "__main__":
    rank = int(sys.argv[1])
    for (k, rule), count in sorted(check_rank(rank).items()):
        print(f"rank {rank}, {k} vertices, {rule}: {count}")
