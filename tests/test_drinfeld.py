import itertools
import random
import time
from collections import Counter

import pytest

from qfgraph.drinfeld import (DrinfeldPoly, KRFactor, dual, expand_all,
                              is_dissociate, normalize, q_factorize)
from qfgraph.dynkin import DynkinA
from qfgraph.redsets import sl2_set
from qfgraph.sweeps import merge_factorize


def test_expand_examples():
    assert expand_all([KRFactor(1, 3, 2)]).roots == ((1, 2), (1, 4))
    assert expand_all([KRFactor(2, 0, 1)]).roots == ((2, 0),)
    assert expand_all([KRFactor(3, 6, 3)]).roots == ((3, 4), (3, 6), (3, 8))


def test_factor_roots_progression():
    assert KRFactor(1, 3, 2).roots() == (4, 2)
    assert KRFactor(3, 6, 3).roots() == (8, 6, 4)
    with pytest.raises(ValueError):
        KRFactor(1, 0, 0)


def test_q_factorize_merges_weight_one_pair():
    'two gap-2 roots of one color coalesce into a single weight-2 string'
    poly = expand_all([KRFactor(1, 2, 1), KRFactor(1, 4, 1), KRFactor(2, 0, 2)])
    assert q_factorize(poly) == (KRFactor(1, 3, 2), KRFactor(2, 0, 2))


def test_q_factorize_keeps_distinct_strings():
    poly = expand_all([KRFactor(3, 8, 1), KRFactor(3, 6, 3)])
    assert poly.roots == ((3, 4), (3, 6), (3, 8), (3, 8))
    assert q_factorize(poly) == (KRFactor(3, 6, 3), KRFactor(3, 8, 1))
    assert 2 not in sl2_set(1, 3)


def test_q_factorize_single_root():
    assert q_factorize(DrinfeldPoly.from_roots([(2, 5)])) == (KRFactor(2, 5, 1),)


def test_q_factorize_nested_overlap():
    'overlapping strings split into span union plus span intersection'
    poly = DrinfeldPoly.from_roots([(1, 4), (1, 2), (1, 2), (1, 0)])
    assert q_factorize(poly) == (KRFactor(1, 2, 1), KRFactor(1, 2, 3))


def test_q_factorize_mixed_parity():
    poly = DrinfeldPoly.from_roots([(1, 0), (1, 1), (1, 2)])
    assert q_factorize(poly) == (KRFactor(1, 1, 1), KRFactor(1, 1, 2))


def test_q_factorize_output_is_dissociate_and_root_preserving():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        roots = [(rng.randint(1, n), rng.randint(-5, 5))
                 for _ in range(rng.randint(1, 9))]
        poly = DrinfeldPoly.from_roots(roots)
        factors = q_factorize(poly)
        assert is_dissociate(factors)
        assert expand_all(factors) == poly
        assert q_factorize(expand_all(factors)) == factors


def test_q_factorize_merge_order_independent():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 4)
        roots = [(rng.randint(1, n), rng.randint(-4, 4))
                 for _ in range(rng.randint(2, 8))]
        poly = DrinfeldPoly.from_roots(roots)
        reference = q_factorize(poly)
        for _ in range(4):
            assert merge_factorize(poly, rng) == reference


def test_q_factorize_matches_merge_oracle():
    'the level-set peel equals the pairwise merge on random root multisets'
    rng = random.Random(31)
    for _ in range(5000):
        n = rng.randint(1, 3)
        roots = [(rng.randint(1, n), rng.randint(-6, 6))
                 for _ in range(rng.randint(1, 12))]
        poly = DrinfeldPoly.from_roots(roots)
        assert q_factorize(poly) == merge_factorize(poly)


def test_normalize_matches_merge_oracle():
    'factor spans go to the peel directly; flag set exactly when the output differs'
    rng = random.Random(37)
    for _ in range(2000):
        n = rng.randint(1, 3)
        factors = [KRFactor(rng.randint(1, n), rng.randint(-6, 6), rng.randint(1, 5))
                   for _ in range(rng.randint(1, 6))]
        expected = merge_factorize(expand_all(factors))
        assert normalize(factors) == (expected, expected != tuple(sorted(factors)))


def all_pairs_dissociate(factors) -> bool:
    """The test is_dissociate replaced: every pair, in input order."""
    return not any(u.color == v.color
                   and abs(u.exponent - v.exponent) in sl2_set(u.weight, v.weight)
                   for u, v in itertools.combinations(factors, 2))


def test_windowed_dissociate_matches_all_pairs_oracle():
    'unsorted input, ties, negatives, copies, a weight of 10^9 and rank 1 included'
    rng = random.Random(41)
    seen = Counter()
    for k in range(5000):
        n = rng.randint(1, 3)
        spread = rng.choice((3, 10, 40))
        factors = [KRFactor(rng.randint(1, n), rng.randint(-spread, spread),
                            rng.randint(1, 4)) for _ in range(rng.randint(0, 9))]
        if k % 10 == 0 and factors:
            factors[0] = KRFactor(factors[0].color, factors[0].exponent, 10**9)
        if k % 10 == 5 and factors:  # far from the rest, maybe with a partner
            huge = factors[0] = KRFactor(factors[0].color, -5 * 10**9, 10**9)
            weight = rng.randint(1, 4)
            gap = rng.choice(sl2_set(huge.weight, weight)) + rng.choice((0, 1))
            factors.append(KRFactor(huge.color, huge.exponent
                                    + rng.choice((-1, 1)) * gap, weight))
        if k % 3 == 1 and factors:
            factors += rng.choices(factors, k=rng.randint(1, 4))
        rng.shuffle(factors)
        want = all_pairs_dissociate(factors)
        assert is_dissociate(factors) == want, factors
        seen[want] += 1
        seen["huge", want] += any(f.weight == 10**9 for f in factors)
        seen["far huge", want] += any(f.exponent == -5 * 10**9 for f in factors)
        seen["copies", want] += len(set(factors)) < len(factors)
    for key in (True, False, ("huge", True), ("huge", False), ("far huge", True),
                ("far huge", False), ("copies", True), ("copies", False)):
        assert seen[key] > 100, (key, seen)


def test_normalize_is_near_linear_on_wide_shapes():
    'strings 3 apart, copies, a far weight-10^9 factor and nested strings: no pair scan'
    size = 2000
    spaced = [KRFactor(k % 4 + 1, 3 * (k // 4), 2) for k in range(size)]
    shapes = [list(reversed(spaced)), [KRFactor(1, 0, 1)] * 8000,
              [KRFactor(1, 3 * k, 1) for k in range(size)]
              + [KRFactor(1, -5 * 10**9, 10**9)],
              [KRFactor(1, 0, w) for w in range(4000, 0, -1)]]
    for factors in shapes:
        start = time.perf_counter()
        assert normalize(factors) == (tuple(sorted(factors)), False)
        assert time.perf_counter() - start < 1.0, factors[:2]


def test_dual_whole_diagram():
    dg = DynkinA(2)
    assert dual(KRFactor(1, 7, 2), dg) == KRFactor(2, 4, 2)
    assert dual(KRFactor(2, 3, 1), dg) == KRFactor(1, 0, 1)


def test_dual_in_window():
    'the dual is taken over the whole diagram; a color outside it is an error'
    dg = DynkinA(2)
    assert dual(KRFactor(1, 0, 1), dg) == KRFactor(2, -3, 1)
    with pytest.raises(ValueError, match="node 3 out of range for rank 2"):
        dual(KRFactor(3, 0, 1), dg)


def test_dual_twice_is_exponent_shift():
    dg = DynkinA(4)
    for f in (KRFactor(1, 5, 2), KRFactor(3, -2, 4), KRFactor(4, 0, 1)):
        twice = dual(dual(f, dg), dg)
        assert twice == KRFactor(f.color, f.exponent - 2 * (dg.n + 1), f.weight)


def test_factor_json():
    f = KRFactor(2, -1, 3)
    assert KRFactor.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        KRFactor.from_json({"color": 1, "exponent": "x", "weight": 1})
    with pytest.raises(ValueError):
        KRFactor.from_json({"color": 1})
