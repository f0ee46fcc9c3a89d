import itertools
import random
from collections import Counter, namedtuple
from math import comb

import pytest

import qfgraph.graph
import qfgraph.redsets
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.fixtures import cesubpt_factors, cosubpt_factors, newprimex_factors
from qfgraph.graph import (ALTERNATING_LINE3, DISCONNECTED, MONOTONIC_LINE3,
                           OTHER, SINGLETON, TOTALLY_ORDERED, TREE, TRIANGLE,
                           TWO_LINE, Arrow, _overlaps, build_graph, classify)
from qfgraph.redsets import r_set
from qfgraph.sweeps import arrow_dual, color_dual, random_tree_graph


def arrow_set(g):
    return {(g.vertices[a.tail].label(), g.vertices[a.head].label(), a.epsilon)
            for a in g.arrows}


def test_four_vertex_tree_arrows():
    'the 4-vertex A3 tree: labels 3, 4, 5 and no chord between the extremes'
    dg, factors = cosubpt_factors()
    g = build_graph(factors, dg)
    assert not g.was_refactorized
    assert arrow_set(g) == {("3^1@8", "2^1@5", 3), ("2^1@5", "1^2@1", 4),
                            ("3^3@6", "1^2@1", 5)}
    ids = {g.vertices[v].label(): v for v in range(len(g))}
    assert not g.adjacent(ids["3^1@8"], ids["1^2@1"])
    assert classify(g).tag == TREE


def test_pre_factorization_input_is_normalized():
    dg, factors = newprimex_factors(1)
    g = build_graph(factors, dg)
    assert g.was_refactorized
    assert g.vertices == (KRFactor(1, 3, 2), KRFactor(2, 0, 2))
    assert arrow_set(g) == {("1^2@3", "2^2@0", 3)}


def test_alternating_line_build():
    dg, factors = newprimex_factors(2)
    g = build_graph(factors, dg)
    assert not g.was_refactorized
    shape = classify(g)
    assert shape.tag == ALTERNATING_LINE3
    assert sorted(a.epsilon for a in g.arrows) == [3, 4]
    e1, mid, e2 = shape.line_order
    assert g.vertices[mid].label() == "2^2@0"


def test_four_cycle():
    dg, factors = cesubpt_factors()
    g = build_graph(factors, dg)
    assert arrow_set(g) == {("1^2@7", "2^2@4", 3), ("1^2@7", "2^1@3", 4),
                            ("2^2@4", "1^1@0", 4), ("2^1@3", "1^1@0", 3)}
    assert classify(g).tag == OTHER


def test_classify_small_shapes():
    dg = DynkinA(3)
    singleton = build_graph([KRFactor(2, 0, 1)], dg)
    assert classify(singleton).tag == SINGLETON

    pair = build_graph([KRFactor(1, 3, 1), KRFactor(2, 0, 1)], dg)
    assert classify(pair).tag == TWO_LINE
    assert len(pair.arrows) == 1

    far_apart = build_graph([KRFactor(1, 0, 1), KRFactor(1, 40, 1)], dg)
    assert classify(far_apart).tag == DISCONNECTED
    assert len(far_apart.components()) == 2

    mono = build_graph([KRFactor(1, 9, 1), KRFactor(2, 6, 1), KRFactor(3, 3, 1)], dg)
    assert classify(mono).tag == MONOTONIC_LINE3
    assert mono.is_totally_ordered()


def test_classify_triangle_and_chain():
    dg = DynkinA(3)
    triangle = build_graph(
        [KRFactor(1, 7, 2), KRFactor(2, 4, 2), KRFactor(3, 1, 2)], dg)
    assert len(triangle.arrows) == 3
    assert classify(triangle).tag == TRIANGLE

    chain = build_graph([KRFactor(1, 9, 1), KRFactor(2, 6, 1),
                         KRFactor(3, 3, 1), KRFactor(2, 0, 1)], dg)
    assert len(chain) == 4
    assert classify(chain).tag == TOTALLY_ORDERED


def test_arrows_are_exponent_decreasing():
    for dg, factors in (cosubpt_factors(), cesubpt_factors()):
        g = build_graph(factors, dg)
        for a in g.arrows:
            assert a.epsilon > 0
            assert g.vertices[a.tail].exponent \
                == g.vertices[a.head].exponent + a.epsilon


def test_neighbor_lists_ascend_and_list_each_arrow_once():
    'out and into are strictly ascending, and each lists every arrow once'
    rng = random.Random(20261019)
    graphs = [random_tree_graph(rng) for _ in range(2000)]
    for _ in range(200):
        n = rng.randint(1, 6)
        factors = [KRFactor(rng.randint(1, n), rng.randint(-8, 8), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 12))]
        graphs.append(build_graph(factors, DynkinA(n)))
    seen = Counter()
    for g in graphs:
        for lists in (g.out, g.into):
            assert len(lists) == len(g)
            for ids in lists:
                assert all(a < b for a, b in zip(ids, ids[1:])), ids
                seen["two or more"] += len(ids) > 1
        arrows = Counter((a.tail, a.head) for a in g.arrows)
        assert set(arrows.values()) <= {1}
        assert Counter((t, h) for t, heads in enumerate(g.out) for h in heads) == arrows
        assert Counter((t, h) for h, tails in enumerate(g.into) for t in tails) == arrows
    assert seen["two or more"] > 500, seen


def test_graph_stores_no_arrow():
    'the graph keeps its keys and neighbor lists; arrows are made from them on each read'
    def holds_arrow(value):
        return isinstance(value, Arrow) or isinstance(value, (tuple, list, set)) \
            and any(map(holds_arrow, value))

    for dg, factors in (cosubpt_factors(), cesubpt_factors(), newprimex_factors(2)):
        g = build_graph(factors, dg)
        assert not any(holds_arrow(getattr(g, name)) for name in type(g).__slots__)
        assert g.arrows and g.arrows == g.arrows and g.arrows is not g.arrows


def test_connected_subgraph_counts():
    'one connected subset per vertex, per edge, and per vertex with two neighbors'
    dg, factors = cosubpt_factors()
    g = build_graph(factors, dg)
    assert g.is_tree() and len(g) == 4
    assert sum(comb(len(g.out[v]) + len(g.into[v]), 2)
               for v in range(len(g))) == 2
    mono = build_graph([KRFactor(1, 9, 1), KRFactor(2, 6, 1), KRFactor(3, 3, 1)],
                       DynkinA(3))
    assert len(mono.arrows) == 2


def test_arrow_dual_is_involution():
    dg, factors = cosubpt_factors()
    g = build_graph(factors, dg)
    gg = arrow_dual(g)
    flipped = {(KRFactor(g.vertices[a.head].color, -g.vertices[a.head].exponent,
                         g.vertices[a.head].weight),
                KRFactor(g.vertices[a.tail].color, -g.vertices[a.tail].exponent,
                         g.vertices[a.tail].weight),
                a.epsilon) for a in g.arrows}
    dualled = {(gg.vertices[a.tail], gg.vertices[a.head], a.epsilon)
               for a in gg.arrows}
    assert dualled == flipped
    ggg = arrow_dual(gg)
    assert (ggg.diagram.n, ggg.vertices, ggg.arrows, ggg.was_refactorized) == \
        (g.diagram.n, g.vertices, g.arrows, g.was_refactorized)
    assert classify(gg).tag == classify(g).tag


def test_color_dual_maps_vertices():
    dg, factors = cesubpt_factors()
    g = build_graph(factors, dg)
    gg = color_dual(g)
    assert KRFactor(2, 4, 2) in gg.vertices
    assert KRFactor(1, 0, 1) in gg.vertices
    shift = -2 * (dg.n + 1)
    assert color_dual(gg).vertices == tuple(
        KRFactor(v.color, v.exponent + shift, v.weight) for v in g.vertices)
    assert classify(gg).tag == classify(g).tag


def test_dot_output():
    dg = DynkinA(2)
    g = build_graph([KRFactor(1, 3, 1), KRFactor(2, 0, 1)], dg)
    assert g.to_dot() == (
        "digraph qfactorization {\n"
        "  rankdir=LR;\n"
        '  v0 [label="1^1@3"];\n'
        '  v1 [label="2^1@0"];\n'
        '  v0 -> v1 [label="3"];\n'
        "}\n")


def test_build_graph_validates_colors():
    with pytest.raises(ValueError):
        build_graph([KRFactor(4, 0, 1)], DynkinA(3))


def test_build_graph_checks_colors_in_constant_calls(monkeypatch):
    'the build checks only the least and greatest color; one bad color anywhere still raises'
    calls = Counter()
    check_node = DynkinA.check_node

    def counted(self, i):
        calls["check_node"] += 1
        return check_node(self, i)

    monkeypatch.setattr(DynkinA, "check_node", counted)
    diagram = DynkinA(50)
    factors = [KRFactor(1 + k % 50, 100 * k, 1 + k % 3) for k in range(2000)]
    g = build_graph(factors, diagram)
    assert len(g) == 2000 and 1 <= calls["check_node"] <= 2
    bad = KRFactor(51, 7, 1)
    for at in (0, 1000, 2000):
        with pytest.raises(ValueError, match="^node 51 out of range for rank 50$"):
            build_graph(factors[:at] + [bad] + factors[at:], diagram)


def test_classify_rejects_empty():
    g = build_graph([], DynkinA(2))
    with pytest.raises(ValueError):
        classify(g)


def all_pairs_arrows(vertices, diagram) -> tuple:
    """The construction build_graph replaced: every ordered pair, in id order."""
    arrows = []
    for t, u in enumerate(vertices):
        for h, v in enumerate(vertices):
            gap = u.exponent - v.exponent
            if t != h and gap > 0 and \
                    gap in r_set(diagram, u.color, u.weight, v.color, v.weight):
                arrows.append(Arrow(t, h, gap))
    return tuple(arrows)


def weight_bucket(w: int) -> str:
    return "1-3" if w <= 3 else "4-15" if w <= 15 else "10^9"


def test_windowed_arrows_match_all_pairs_oracle():
    'same arrows in the same order: rank 1, ties, negatives, weights to 10^3998, re-factorized'
    rng = random.Random(20261020)
    seen = Counter()
    for k in range(4000):
        n = 1 if k % 5 == 0 else rng.randint(2, 6)
        diagram = DynkinA(n)
        spread = rng.choice((2, 6, 30, 60))
        factors = [KRFactor(rng.randint(1, n), rng.randint(-spread, spread),
                            rng.randint(1, 3) if rng.random() < 0.6 else rng.randint(4, 15))
                   for _ in range(rng.randint(1, 10))]
        big = 10**9 if k % 10 == 1 else 10**3998 if k % 50 == 3 else None
        if big:  # widens its own group; a partner about as far away as its weight
            huge = factors[0] = KRFactor(factors[0].color, factors[0].exponent, big)
            color, weight = rng.randint(1, n), rng.randint(1, 4)
            gap = rng.choice(r_set(diagram, color, weight, huge.color, huge.weight))
            factors.append(KRFactor(color, huge.exponent + rng.choice((-1, 1)) * gap,
                                    weight))
        if k % 4 == 2:  # one root on top of a string: normalize joins them
            f = factors[0]
            factors.append(KRFactor(f.color, f.exponent + f.weight + 1, 1))
        g = build_graph(factors, diagram)
        assert g.arrows == all_pairs_arrows(g.vertices, diagram), \
            [v.label() for v in g.vertices]
        exponents = [v.exponent for v in g.vertices]
        seen["rank 1"] += n == 1 and len(g) > 1  # never an arrow: dissociate
        seen["tie"] += len(set(exponents)) < len(exponents)
        seen["negative"] += min(exponents) < 0
        seen["weight 10^9 arrow"] += any(
            g.vertices[a.tail].weight >= 10**9 or g.vertices[a.head].weight >= 10**9
            for a in g.arrows)
        seen["weight 10^3998 arrow"] += any(
            g.vertices[a.tail].weight >= 10**3998 or g.vertices[a.head].weight >= 10**3998
            for a in g.arrows)
        seen["re-factorized"] += g.was_refactorized
        seen["pruned"] += max(exponents) - min(exponents) > \
            2 * max(v.weight for v in g.vertices) + n - 1
        seen["both parity classes"] += len(
            {(v.exponent + v.weight + v.color) % 2 for v in g.vertices}) == 2
        for bucket in {weight_bucket(v.weight) for v in g.vertices}:
            seen["bucket " + bucket] += 1
        seen["arrow across buckets"] += any(
            weight_bucket(g.vertices[a.tail].weight)
            != weight_bucket(g.vertices[a.head].weight) for a in g.arrows)
    for key in ("rank 1", "tie", "negative", "weight 10^9 arrow", "re-factorized",
                "pruned", "both parity classes", "bucket 1-3", "bucket 4-15",
                "bucket 10^9", "arrow across buckets"):
        assert seen[key] > 50, (key, seen)
    assert seen["weight 10^3998 arrow"] > 40, seen


def count_probes(monkeypatch) -> Counter:
    """Count string_parameter probes and r_set calls, wherever the build
    could reach them."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("string_parameter", "r_set"):
        counted = counting(name, getattr(qfgraph.redsets, name))
        monkeypatch.setattr(qfgraph.redsets, name, counted)
        monkeypatch.setattr(qfgraph.graph, name, counted, raising=False)
    return calls


def test_sparse_build_tests_few_gaps(monkeypatch, count_window_ids):
    'rank 4, V = 2000 exponents over 40 V, and a weight-10^9 factor: O(V) work, not V^2'
    rng = random.Random(4)
    size = 2000
    factors = [KRFactor(rng.randint(1, 4), rng.randint(0, 40 * size), rng.randint(1, 3))
               for _ in range(size)]
    calls = count_probes(monkeypatch)
    g = build_graph(factors, DynkinA(4))
    assert len(g) > size * 0.9 and g.arrows
    assert not calls, "the build probes no gap and builds no set"
    examined = count_window_ids(qfgraph.graph)
    heavy = build_graph(factors + [KRFactor(1, -5 * 10**9, 10**9)], DynkinA(4))
    assert arrow_set(heavy) == arrow_set(g)
    assert 0 < examined["pairs"] <= 2 * size


def test_build_refuses_past_the_pair_budget(monkeypatch, count_window_ids):
    'one pair over MAX_BUILD_PAIRS raises before any pair is tested; exactly at it, it builds'
    rng = random.Random(5)
    factors = [KRFactor(c, rng.randint(0, 40), 1) for c in range(1, 41)]
    diagram = DynkinA(40)
    examined = count_window_ids(qfgraph.graph)
    g = build_graph(factors, diagram)
    budget = examined["pairs"]
    assert budget > len(g.arrows) > 100
    monkeypatch.setattr(qfgraph.graph, "MAX_BUILD_PAIRS", budget)
    calls = count_probes(monkeypatch)
    assert build_graph(factors, diagram).arrows == g.arrows
    assert not calls, "no probe and no r_set call"
    monkeypatch.setattr(qfgraph.graph, "MAX_BUILD_PAIRS", budget - 1)
    calls.clear()
    with pytest.raises(ValueError, match=f"more than {budget - 1} vertex pairs"):
        build_graph(factors, diagram)
    assert not calls, "a refused build makes no probe"
    half = budget // 2
    monkeypatch.setattr(qfgraph.graph, "MAX_BUILD_PAIRS", half)
    examined.clear()
    with pytest.raises(ValueError, match=f"more than {half} vertex pairs"):
        build_graph(factors, diagram)
    assert half < examined["pairs"] <= half + len(factors), \
        "the build stops at the first run past the budget"


Member = namedtuple("Member", "color exponent weight left right")


def random_interval(rng, starts):
    """A closed interval: a shared start, a single point, or ends up to 10^9."""
    lo = rng.choice(starts) if rng.random() < 0.5 else rng.randint(-10**9, 10**9)
    kind = rng.random()
    if kind < 0.2:
        return lo, lo
    if kind < 0.3:
        return lo, 10**9
    return lo, lo + rng.randint(0, rng.choice((3, 30, 10**9)))


def test_overlaps_matches_all_pairs_oracle():
    'both classes, an empty class, shared starts, single points, ends at +-10^9'
    rng = random.Random(20261018)
    seen = Counter()
    for k in range(4000):
        starts = [rng.randint(-10**9, 10**9) for _ in range(2)] + [-1, 0, 1]
        parities = (0, 1) if k % 4 else (rng.randint(0, 1),)
        factors = [Member(rng.randint(1, 6), rng.randint(-40, 40) * 2 + rng.choice(parities),
                          2, random_interval(rng, starts), random_interval(rng, starts))
                   for _ in range(rng.randint(0, 12))]
        runs = list(_overlaps(factors, lambda f: f.left, lambda f: f.right))
        assert all(sorted(map(len, run))[0] == 1 for run in runs), runs
        got = [(a, b) for lefts, rights in runs for a in lefts for b in rights]
        want = [(a, b) for a, fa in enumerate(factors) for b, fb in enumerate(factors)
                if (fa.exponent + fa.weight + fa.color) % 2
                == (fb.exponent + fb.weight + fb.color) % 2
                and max(fa.left[0], fb.right[0]) <= min(fa.left[1], fb.right[1])]
        assert len(set(got)) == len(got) and sorted(got) == want, factors
        classes = {(f.exponent + f.weight + f.color) % 2 for f in factors}
        seen["no factor"] += not factors
        seen["one class empty"] += len(factors) > 1 and len(classes) == 1
        seen["both classes"] += len(classes) == 2
        seen["equal starts"] += any(a != b and fa.left[0] == fb.right[0]
                                    for a, fa in enumerate(factors)
                                    for b, fb in enumerate(factors)) and bool(want)
        seen["single point pair"] += any(factors[a].left[0] == factors[a].left[1]
                                         for a, _ in want)
        seen["negative pair"] += any(factors[a].left[1] < 0 for a, _ in want)
        seen["end 10^9"] += any(factors[b].right[1] == 10**9 for _, b in want)
    for key in ("no factor", "one class empty", "both classes", "equal starts",
                "single point pair", "negative pair", "end 10^9"):
        assert seen[key] > 50, (key, seen)


def test_every_arrow_boundary_of_two_factors_in_both_orders():
    """Each two-factor input at ranks 1-4, weights 1-3 and gaps from
    -(r + s + n + 1) to r + s + n + 1, in both input orders, has one arrow
    exactly when the gap lies in r_set in its direction, and none otherwise.

    Every end of every r_set is reached, and one step past it on both sides,
    so each of the build's six comparisons meets its boundary from both
    sides, as tail and as head.  Two loosenings cannot be told apart by any
    input: within a parity class the tail's first coordinate minus the head's
    last, and its second minus the head's third, are even, so `at <= dh - 2`
    and `at <= dh - 1` agree, and so do `bt <= ch + 2n` and `bt <= ch + 2n + 1`.
    """
    builds = Counter()
    for n in range(1, 5):
        diagram = DynkinA(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            for r, s in itertools.product(range(1, 4), repeat=2):
                reach = r + s + n + 1
                for m in range(-reach, reach + 1):
                    u, v = KRFactor(i, m, r), KRFactor(j, 0, s)
                    if m > 0 and m in r_set(diagram, i, r, j, s):
                        want = {(u.label(), v.label(), m)}
                    elif m < 0 and -m in r_set(diagram, j, s, i, r):
                        want = {(v.label(), u.label(), -m)}
                    else:
                        want = set()
                    for factors in ([u, v], [v, u]):
                        g = build_graph(factors, diagram)
                        if g.was_refactorized:
                            builds["re-factorized"] += 1
                            continue
                        assert arrow_set(g) == want, (n, factors)
                        builds["arrow" if want else "none"] += 1
    assert builds == {"arrow": 1300, "none": 7680, "re-factorized": 560}, builds
