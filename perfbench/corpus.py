"""Seeded input generators for the three workloads.

Every generator takes a random.Random built from the benchmark's --seed and
uses only the closed forms in closedform.py, so the program sees nothing but
the JSON files written from these inputs.  Each corpus has a fixed make-up
(how many inputs of which family and size); the seed draws their contents.
"""

from __future__ import annotations

import random

import closedform as cf

# tree-verdicts
RANDOM_TREES = 400
RANDOM_TREE_MAX_VERTICES = 6
TREE_MAX_RANK = 5
TREE_MAX_WEIGHT = 3
HARD_TREE_SIZES = (8,) * 6 + (9,) * 6 + (10,) * 10 + (11,) * 4 + (12,) * 2
# Median, over unfiltered hard trees of each size, of subtree_work(); a hard
# tree is kept only when its own work lies within HARD_TREE_BAND of it.
HARD_TREE_WORK = {8: 4140, 9: 10800, 10: 20806, 11: 53847, 12: 111100}
HARD_TREE_BAND = 0.10

# wide-inputs
PREFACTOR_SIZES = (100, 150, 200, 250, 300, 400)
# Seven graphs of 100 vertices put the median wide input among cyclic graphs.
CYCLIC_SIZES = (50, 75) + (100,) * 7 + (125, 150)
# Median arrow count of unfiltered cyclic graphs of each size; a graph is kept
# only when its arrow count lies within CYCLIC_BAND of it.
CYCLIC_ARROWS = {50: 217, 75: 396, 100: 651, 125: 837, 150: 1162}
CYCLIC_BAND = 0.10
SAME_COLOR_WEIGHTS = (200, 500, 1000, 1500, 2000)
CROSS_COLOR_WEIGHTS = (20_000, 50_000, 100_000, 200_000, 300_000)


# -- fixtures ----------------------------------------------------------------

def fixture_inputs() -> list[dict]:
    """The three bundled example families, written out from fixtures.py."""
    out = []
    for r in range(1, 9):
        out.append({"name": f"newprimex-{r}", "family": "fixture", "rank": 2,
                    "factors": [(1, r + 1, r), (2, 0, 2), (1, 4, 1)],
                    "expect": {"primality": "not_prime" if r == 2 else "prime",
                               "reality": "real"}})
    out.append({"name": "cosubpt", "family": "fixture", "rank": 3,
                "factors": [(1, 1, 2), (2, 5, 1), (3, 6, 3), (3, 8, 1)],
                "expect": {"primality": "unknown", "reality": "real"}})
    out.append({"name": "cesubpt", "family": "fixture", "rank": 2,
                "factors": [(1, 7, 2), (1, 0, 1), (2, 4, 2), (2, 3, 1)],
                "expect": {"primality": "unknown", "reality": "unknown"}})
    return out


# -- trees -------------------------------------------------------------------

def _try_leaf(rng: random.Random, n: int, factors: list):
    """A leaf hung off a random vertex that keeps the factors a dissociate
    tree, or None."""
    parent = rng.choice(factors)
    color = rng.randint(1, n)
    weight = rng.randint(1, TREE_MAX_WEIGHT)
    gaps = cf.rset_elements(n, color, weight, parent[0], parent[2])
    gap = rng.choice(gaps) * rng.choice((-1, 1))
    leaf = (color, parent[1] + gap, weight)
    if leaf in factors or not cf.dissociate(factors + [leaf]):
        return None
    touching = [f for f in factors
                if cf.arrow_gap(n, f, leaf) or cf.arrow_gap(n, leaf, f)]
    if touching != [parent]:
        return None
    return leaf


def random_tree(rng: random.Random) -> tuple[int, list]:
    """A dissociate tree grown leaf by leaf, as sweeps.random_tree_graph does."""
    n = rng.randint(1, TREE_MAX_RANK)
    factors = [(rng.randint(1, n), 0, rng.randint(1, TREE_MAX_WEIGHT))]
    target = rng.randint(1, RANDOM_TREE_MAX_VERTICES)
    attempts = 0
    while len(factors) < target and attempts < 40:
        attempts += 1
        leaf = _try_leaf(rng, n, factors)
        if leaf is not None:
            factors.append(leaf)
    return n, factors


def _creates_simple_triple(n: int, factors: list, leaf: tuple) -> bool:
    """Does hanging `leaf` add an alternating triple with a simple cut?  The
    new triples are leaf - parent - x for the parent's other neighbours."""
    grown = factors + [leaf]
    adj, arrows = cf.adjacency(n, grown)
    new = len(grown) - 1
    return any(new in (a, b) for a, _, b in cf.simple_triples(n, grown, adj, arrows))


def _connected_masks(adj) -> list[bool]:
    """connected[mask]: does the vertex subset `mask` induce a connected tree?"""
    k = len(adj)
    nbr = [sum(1 << w for w in adj[v]) for v in range(k)]
    connected = [False] * (1 << k)
    for mask in range(1, 1 << k):
        reached = frontier = mask & -mask
        while frontier:
            grow, rest = 0, frontier
            while rest:
                low = rest & -rest
                grow |= nbr[low.bit_length() - 1]
                rest ^= low
            frontier = grow & mask & ~reached
            reached |= frontier
        connected[mask] = reached == mask
    return connected


def subtree_work(adj) -> int:
    """Sum, over the connected vertex subsets S of four or more vertices (the
    whole tree included), of |T|^2 over the proper connected subsets T of S
    with |T| >= 2: the work of a decision that, for each such S, rebuilds the
    graph on every connected part of it."""
    connected = _connected_masks(adj)
    total = 0
    for whole in range(1, len(connected)):
        if not connected[whole] or whole.bit_count() < 4:
            continue
        part = (whole - 1) & whole
        while part:
            if connected[part] and part.bit_count() >= 2:
                total += part.bit_count() ** 2
            part = (part - 1) & whole
    return total


def hard_tree(rng: random.Random, size: int) -> tuple[int, list]:
    """A dissociate tree on `size` vertices with at least one alternating
    triple and no alternating triple whose cut is simple, so the subgraph
    rule cannot decide it and is_prime walks every connected subset.  Its
    subtree_work lies within HARD_TREE_BAND of the typical one for the size,
    so that trees of one size cost about the same on every seed."""
    target = HARD_TREE_WORK[size]
    while True:
        n = rng.randint(2, TREE_MAX_RANK)
        factors = [(rng.randint(1, n), 0, rng.randint(1, TREE_MAX_WEIGHT))]
        attempts = 0
        while len(factors) < size and attempts < 60 * size:
            attempts += 1
            leaf = _try_leaf(rng, n, factors)
            if leaf is not None and not _creates_simple_triple(n, factors, leaf):
                factors.append(leaf)
        if len(factors) == size:
            adj, arrows = cf.adjacency(n, factors)
            work = subtree_work(adj)
            if abs(work - target) <= HARD_TREE_BAND * target and \
                    any(True for _ in cf.alternating_triples(factors, adj, arrows)):
                return n, factors


def tree_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"tree-verdicts/{seed}")
    out = fixture_inputs()
    for k in range(RANDOM_TREES):
        n, factors = random_tree(rng)
        out.append({"name": f"random-{k}", "family": "random", "rank": n,
                    "factors": factors})
    for k, size in enumerate(HARD_TREE_SIZES):
        n, factors = hard_tree(rng, size)
        out.append({"name": f"hard-{size}-{k}", "family": "hard", "rank": n,
                    "factors": factors})
    return out


# -- wide inputs -------------------------------------------------------------

def prefactorization(rng: random.Random, count: int) -> tuple[int, list]:
    """`count` factors on rank 6 at random exponents, packed densely enough
    that many same-color pairs are linked and q_factorize has to merge.
    Colors and weights are dealt round-robin, so every seed gives each color
    the same number of roots and only the exponents vary."""
    n = 6
    span = count // 2
    while True:
        factors = [(1 + k % n, rng.randint(-span, span), 1 + k // n % 3)
                   for k in range(count)]
        if not cf.dissociate(factors):
            rng.shuffle(factors)
            return n, factors


def cyclic_graph(rng: random.Random, size: int) -> tuple[int, list]:
    """A dissociate, connected graph on `size` vertices with cycles: each new
    factor sits at an arrow gap from a random earlier one.  Its arrow count
    lies within CYCLIC_BAND of the typical one for the size."""
    n = 8
    target = CYCLIC_ARROWS[size]
    while True:
        factors = [(rng.randint(1, n), 0, rng.randint(1, 3))]
        while len(factors) < size:
            parent = rng.choice(factors)
            color, weight = rng.randint(1, n), rng.randint(1, 3)
            gap = rng.choice(cf.rset_elements(n, color, weight, parent[0], parent[2]))
            f = (color, parent[1] + gap * rng.choice((-1, 1)), weight)
            if f not in factors and all(not cf.linked(f, g) for g in factors):
                factors.append(f)
        adj, arrows = cf.adjacency(n, factors)
        if not cf.is_tree(adj) and abs(len(arrows) - target) <= CYCLIC_BAND * target:
            return n, factors


def same_color_pair(rng: random.Random, weight: int) -> tuple[int, list]:
    """Two linked q-strings of one color, both of weight about `weight`."""
    n = rng.randint(1, 4)
    color = rng.randint(1, n)
    r = weight + rng.randint(-weight // 20, weight // 20)
    s = weight + rng.randint(-weight // 20, weight // 20)
    gap = rng.randrange(abs(r - s) + 2, r + s + 1, 2)
    base = rng.randint(-50, 50)
    return n, [(color, base, r), (color, base + gap, s)]


def cross_color_pair(rng: random.Random, weight: int) -> tuple[int, list]:
    """Two factors of different colors joined by an arrow, weights about
    `weight`, so the pair's reducibility set has about `weight` elements."""
    n = rng.randint(2, 6)
    i, j = rng.sample(range(1, n + 1), 2)
    r = weight + rng.randint(-weight // 50, weight // 50)
    s = weight + rng.randint(-weight // 50, weight // 50)
    elements = cf.rset_elements(n, i, r, j, s)
    gap = elements[rng.randrange(len(elements))]
    base = rng.randint(-50, 50)
    return n, [(i, base + gap, r), (j, base, s)]


def wide_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"wide-inputs/{seed}")
    out = []
    for count in PREFACTOR_SIZES:
        n, factors = prefactorization(rng, count)
        out.append({"name": f"prefactor-{count}", "family": "prefactor", "rank": n,
                    "factors": factors, "factorize": True})
    for k, size in enumerate(CYCLIC_SIZES):
        n, factors = cyclic_graph(rng, size)
        out.append({"name": f"cyclic-{size}-{k}", "family": "cyclic", "rank": n,
                    "factors": factors, "factorize": True})
    for weight in SAME_COLOR_WEIGHTS:
        n, factors = same_color_pair(rng, weight)
        out.append({"name": f"same-color-{weight}", "family": "same-color",
                    "rank": n, "factors": factors, "factorize": True})
    for weight in CROSS_COLOR_WEIGHTS:
        n, factors = cross_color_pair(rng, weight)
        out.append({"name": f"cross-color-{weight}", "family": "cross-color",
                    "rank": n, "factors": factors, "factorize": False})
    return out
