import itertools

import pytest

from qfgraph.dynkin import DynkinA, Interval
from qfgraph.redsets import r_set
from qfgraph.sweeps import hull_distance


def test_hull_distance_examples():
    assert hull_distance(1, 3, 2) == 0
    assert hull_distance(2, 4, 1) == 1
    assert hull_distance(2, 2, 5) == 3


def test_hull_distance_case_formula():
    'the distance to the hull is 0 / d(k,i) / d(k,j) per which node is between'
    for n in range(1, 7):
        for i, j, k in itertools.product(range(1, n + 1), repeat=3):
            got = hull_distance(i, j, k)
            if min(i, j) <= k <= max(i, j):
                assert got == 0
            elif min(k, j) <= i <= max(k, j):
                assert got == abs(k - i)
            else:
                assert got == abs(k - j)


def test_hull_distance_identity_and_bound():
    for n in range(1, 9):
        for i, j, k in itertools.product(range(1, n + 1), repeat=3):
            assert hull_distance(i, j, k) + hull_distance(k, j, i) == abs(k - i)
            assert hull_distance(i, j, k) <= min(abs(k - i), abs(k - j))
            assert abs(k - i) + abs(k - j) - abs(i - j) == 2 * hull_distance(i, j, k)


def test_reflect_examples():
    assert Interval(1, 3).reflect(1) == 3
    assert Interval(1, 3).reflect(2) == 2
    assert Interval(1, 2).reflect(2) == 1


def test_reflect_involution_and_error():
    J = Interval(2, 6)
    for i in range(2, 7):
        assert J.reflect(J.reflect(i)) == i
    with pytest.raises(ValueError):
        J.reflect(1)


def test_dual_coxeter():
    assert Interval(1, 2).dual_coxeter() == 3
    assert Interval(2, 2).dual_coxeter() == 2
    assert Interval(1, 3).dual_coxeter() == 4


def test_dual_node():
    'color duality i -> n + 1 - i is the reflection of the whole diagram'
    assert Interval(1, 2).reflect(1) == 2
    assert Interval(1, 3).reflect(2) == 2
    assert Interval(1, 5).reflect(1) == 5
    for n in range(1, 7):
        whole = Interval(1, n)
        for i in whole.lo, whole.hi, (whole.lo + whole.hi) // 2:
            assert whole.reflect(whole.reflect(i)) == i
            assert whole.reflect(i) == n + 1 - i


def test_boundary_distance():
    'a window set has min(r, s) + d([i, j], boundary of J) elements'
    dg = DynkinA(3)
    assert len(r_set(dg, 1, 1, 2, 1, Interval(1, 2))) == 1
    assert len(r_set(dg, 2, 1, 2, 1, Interval(1, 3))) == 2
    assert len(r_set(dg, 2, 1, 3, 1, Interval(1, 3))) == 1
    with pytest.raises(ValueError, match="not inside window"):
        r_set(dg, 1, 1, 2, 1, Interval(2, 3))


def test_construction_errors():
    with pytest.raises(ValueError):
        DynkinA(0)
    with pytest.raises(ValueError):
        Interval(3, 2)
    with pytest.raises(ValueError):
        Interval(0, 2)
    with pytest.raises(ValueError, match=r"^interval \[2, 4\] exceeds rank 3$"):
        r_set(DynkinA(3), 2, 1, 2, 1, Interval(2, 4))


def test_interval_basics():
    'an interval is its two ends; intervals do not compare by value'
    J = Interval(2, 5)
    assert (J.lo, J.hi) == (2, 5)
    assert J != Interval(2, 5)
