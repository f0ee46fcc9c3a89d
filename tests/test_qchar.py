import inspect
import itertools
import textwrap
from math import comb

import pytest

import qfgraph.qchar
import qfgraph.sweeps
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.qchar import (LWeight, dominant_product_lweights,
                           fundamental_qchar, socle_head)
from qfgraph.redsets import r_set
from qfgraph.sweeps import check_dominant_pair


def lw(*factors):
    out = LWeight(())
    for color, exponent, power in factors:
        out = out * LWeight.fundamental(color, exponent, power)
    return out


# -- oracle: the box and column l-weight formulas, one factor at a time -------

def box_lweight(diagram, entry, support):
    """l-weight of one box: omega_{i, q^{s+i-1}} * omega_{i-1, q^{s+i}}^{-1}.

    The extreme entries 1 and n+1 contribute a single factor because
    omega_0 and omega_{n+1} are trivial.
    """
    n = diagram.n
    if not 1 <= entry <= n + 1:
        raise ValueError(f"box entry {entry} out of range 1..{n + 1}")
    out = LWeight(())
    if entry <= n:
        out = out * LWeight.fundamental(entry, support + entry - 1, 1)
    if entry - 1 >= 1:
        out = out * LWeight.fundamental(entry - 1, support + entry, -1)
    return out


def column_lweight(diagram, entries, support):
    """Product of the box l-weights, box j of k sitting at support s + 2(k - j)."""
    k = len(entries)
    out = LWeight(())
    for j, entry in enumerate(entries, start=1):
        out = out * box_lweight(diagram, entry, support + 2 * (k - j))
    return out


def test_box_lweight_examples():
    dg = DynkinA(3)
    assert box_lweight(dg, 1, 0) == lw((1, 0, 1))
    assert box_lweight(dg, 4, 0) == lw((3, 4, -1))
    assert box_lweight(dg, 2, 3) == lw((2, 4, 1), (1, 5, -1))
    with pytest.raises(ValueError):
        box_lweight(dg, 5, 0)


def test_gapless_column_is_fundamental():
    for n in range(1, 6):
        dg = DynkinA(n)
        for k in range(1, n + 1):
            for s in (-2, 0, 3):
                assert column_lweight(dg, tuple(range(1, k + 1)), s) == \
                    lw((k, s + k - 1, 1))
    for n in range(1, 8):
        dg = DynkinA(n)
        for i in range(1, n + 1):
            columns = itertools.combinations(range(1, n + 2), i)
            assert fundamental_qchar(dg, i) == \
                tuple(column_lweight(dg, c, 1 - i) for c in columns), (n, i)
            assert fundamental_qchar(dg, i)[0] == lw((i, 0, 1))


def test_single_box_column():
    assert column_lweight(DynkinA(2), (1,), 0) == lw((1, 0, 1))


def test_one_gap_column_closed_form():
    'columns 1..k, l+1..l+i-k at support 1-i match the three-factor monomial'
    for n in range(1, 8):
        dg = DynkinA(n)
        for i in range(1, n + 1):
            qchar = fundamental_qchar(dg, i)
            for k in range(0, i):
                for l in range(k + 1, n - i + k + 2):
                    if k >= min(i, l) or l > n - i + k + 1:
                        continue
                    entries = tuple(range(1, k + 1)) + \
                        tuple(range(l + 1, l + i - k + 1))
                    expected = (lw((l, i + l - 2 * k, -1))
                                * _fund_or_unit(dg, k, i - k)
                                * _fund_or_unit(dg, i + l - k, l - k))
                    assert column_lweight(dg, entries, 1 - i) == expected, (n, i, k, l)
                    assert expected in qchar, (n, i, k, l)


def _fund_or_unit(dg, color, exponent):
    if color < 1 or color > dg.n:
        return LWeight(())
    return LWeight.fundamental(color, exponent, 1)


def test_fundamental_qchar_counts():
    for n in range(1, 9):
        dg = DynkinA(n)
        for i in range(1, n + 1):
            chars = fundamental_qchar(dg, i)
            assert len(chars) == comb(n + 1, i)
            assert len(set(chars)) == len(chars)
            assert lw((i, 0, 1)) in chars


def test_dominant_product_examples():
    dg = DynkinA(2)
    assert dominant_product_lweights(dg, 1, 1, 2) == \
        frozenset({lw((1, 0, 1), (1, 2, 1)), lw((2, 1, 1))})
    assert dominant_product_lweights(dg, 1, 2, 3) == \
        frozenset({lw((1, 0, 1), (2, 3, 1)), LWeight(())})
    dg3 = DynkinA(3)
    assert dominant_product_lweights(dg3, 2, 2, 4) == \
        frozenset({lw((2, 0, 1), (2, 4, 1)), LWeight(())})


# -- oracle: the product over every pair of l-weights, unpruned ---------------

def all_pairs_dominant(diagram, i, j, m):
    """Dominant l-weights among all products of the two q-characters."""
    right = [w.shift(m) for w in fundamental_qchar(diagram, j)]
    products = (a * b for a in fundamental_qchar(diagram, i) for b in right)
    return frozenset(w for w in products if all(v >= 0 for _, v in w.entries))


def test_pruned_product_matches_all_pairs():
    for n in range(1, 7):
        dg = DynkinA(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            for m in r_set(dg, i, 1, j, 1):
                assert dominant_product_lweights(dg, i, j, m) == \
                    all_pairs_dominant(dg, i, j, m), (n, i, j, m)


def test_dominant_pair_catches_a_filter_dropping_one_candidate(monkeypatch):
    'the highest left monomial loses its first candidate, the head product'
    source = textwrap.dedent(inspect.getsource(dominant_product_lweights))
    mutant = source.replace("else range(len(right))", "else range(1, len(right))")
    assert mutant != source
    namespace = dict(vars(qfgraph.qchar))
    exec(mutant, namespace)
    monkeypatch.setattr(qfgraph.sweeps, "dominant_product_lweights",
                        namespace["dominant_product_lweights"])
    result = check_dominant_pair(4)
    assert not result.passed
    assert result.failures[0] == "dominant set mismatch n=1 i=1 j=1 m=2"


def test_dominant_product_rejects_bad_gap():
    with pytest.raises(ValueError):
        dominant_product_lweights(DynkinA(3), 1, 3, 2)
    with pytest.raises(ValueError):
        dominant_product_lweights(DynkinA(2), 1, 1, 3)


def test_socle_head_examples():
    dg = DynkinA(2)
    sh = socle_head(dg, 1, 1, 2)
    assert sh.p == 0
    assert sh.socle == (KRFactor(2, 1, 1),)
    assert sh.dropped_trivial == 1
    assert sh.head == (KRFactor(1, 0, 1), KRFactor(1, 2, 1))

    sh = socle_head(DynkinA(3), 2, 2, 4)
    assert sh.p == -1
    assert sh.socle == ()
    assert sh.dropped_trivial == 2

    with pytest.raises(ValueError):
        socle_head(DynkinA(3), 1, 3, 2)


def test_socle_pair_simplicity_whenever_nontrivial():
    for n in range(1, 7):
        dg = DynkinA(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            for m in r_set(dg, i, 1, j, 1):
                sh = socle_head(dg, i, j, m)
                if len(sh.socle) == 2:
                    a, b = sh.socle
                    assert abs(a.exponent - b.exponent) not in \
                        r_set(dg, a.color, 1, b.color, 1)


def test_socle_head_matches_brute_force_dominants():
    for n in range(1, 6):
        dg = DynkinA(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            for m in r_set(dg, i, 1, j, 1):
                sh = socle_head(dg, i, j, m)
                assert dominant_product_lweights(dg, i, j, m) == \
                    frozenset({sh.head_lweight(), sh.socle_lweight()})


def weyl_dim_sl3(a: int, b: int) -> int:
    'dimension of the simple sl3 module with highest weight a w1 + b w2'
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def test_sl3_dimension_identity():
    'the rank-2 product of two first fundamentals decomposes as 3 x 3 = 6 + 3'
    sh = socle_head(DynkinA(2), 1, 1, 2)
    head_dim = weyl_dim_sl3(2, 0)
    socle_dim = weyl_dim_sl3(0, 1)
    assert weyl_dim_sl3(1, 0) ** 2 == head_dim + socle_dim
    assert head_dim == 6 and socle_dim == 3
    assert sh.head == (KRFactor(1, 0, 1), KRFactor(1, 2, 1))
