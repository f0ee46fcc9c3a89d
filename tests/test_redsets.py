import inspect
import itertools
import textwrap
from collections import Counter

import pytest

import qfgraph.redsets
import qfgraph.sweeps
from qfgraph.dynkin import DynkinA, Interval
from qfgraph.redsets import minimal_window, r_set, string_parameter
from qfgraph.sweeps import RANK_ONE, check_redsets_algebra


def test_r_set_examples():
    assert r_set(DynkinA(2), 1, 1, 2, 1) == range(3, 4, 2)
    assert tuple(r_set(DynkinA(3), 3, 3, 1, 2)) == (5, 7)
    assert tuple(r_set(DynkinA(2), 2, 2, 1, 1)) == (4,)


def test_r_set_window_argument():
    dg = DynkinA(3)
    assert tuple(r_set(dg, 2, 1, 2, 1, Interval(2, 2))) == (2,)
    assert tuple(r_set(dg, 2, 1, 2, 1, Interval(1, 3))) == (2, 4)
    with pytest.raises(ValueError):
        r_set(dg, 1, 1, 3, 1, Interval(1, 2))
    with pytest.raises(ValueError):
        r_set(dg, 1, 0, 2, 1)
    with pytest.raises(ValueError, match=r"^interval \[1, 6\] exceeds rank 5$"):
        r_set(DynkinA(5), 1, 1, 2, 1, Interval(1, 6))


def test_sl2_set_examples():
    'the rank-one set is r_set over DynkinA(1)'
    assert type(r_set(RANK_ONE, 1, 1, 1, 1)) is range
    assert tuple(r_set(RANK_ONE, 1, 1, 1, 1)) == (2,)
    assert tuple(r_set(RANK_ONE, 1, 2, 1, 2)) == (2, 4)
    assert tuple(r_set(RANK_ONE, 1, 1, 1, 3)) == (4,)
    assert 4 in r_set(RANK_ONE, 1, 1, 1, 3) and 2 not in r_set(RANK_ONE, 1, 1, 1, 3)
    with pytest.raises(ValueError, match="weights must be positive"):
        r_set(RANK_ONE, 1, 0, 1, 1)


def test_sl2_set_is_single_node_window():
    for n in range(1, 5):
        dg = DynkinA(n)
        for i in range(1, n + 1):
            for r, s in itertools.product(range(1, 5), repeat=2):
                window = Interval(i, i)
                assert r_set(RANK_ONE, 1, r, 1, s) == r_set(dg, i, r, i, s, window)


def test_member():
    'a bare range: `in` is literal, `abs(m) in` asks about either order'
    assert type(r_set(DynkinA(3), 3, 3, 1, 2)) is range
    assert abs(-5) in r_set(DynkinA(3), 3, 3, 1, 2)
    assert -5 not in r_set(DynkinA(3), 3, 3, 1, 2)
    assert abs(7) not in r_set(DynkinA(3), 1, 2, 3, 1)
    assert abs(0) not in r_set(DynkinA(3), 1, 2, 3, 1)
    rs = r_set(DynkinA(2), 1, 1, 2, 1)
    assert 3 in rs and -3 not in rs
    assert abs(3) in rs and abs(-3) in rs and abs(5) not in rs


def test_string_parameter_examples():
    assert string_parameter(DynkinA(2), 2, 2, 1, 1, 4, Interval(1, 2)) == 0
    assert string_parameter(DynkinA(3), 3, 3, 1, 2, 5, Interval(1, 3)) == 1
    assert string_parameter(DynkinA(2), 1, 1, 2, 2, 3, Interval(1, 2)) is None


def test_string_parameter_window_and_sign():
    dg = DynkinA(3)
    assert string_parameter(dg, 2, 1, 2, 1, 4) == -1
    assert string_parameter(dg, 2, 1, 2, 1, 4, Interval(2, 2)) is None
    assert string_parameter(dg, 1, 1, 2, 1, 9) is None
    assert string_parameter(dg, 1, 1, 2, 1, -3) is None


def test_nonpositive_weights_raise_as_in_r_set():
    'the weight check comes after the window and color checks, as in r_set'
    dg = DynkinA(5)
    for fn, args in ((r_set, (dg, 3, 0, 3, 1)),
                     (string_parameter, (dg, 3, 0, 3, 1, 3)),
                     (minimal_window, (dg, 3, 0, 3, 1, 3))):
        with pytest.raises(ValueError, match=r"^weights must be positive, got \(0, 1\)$"):
            fn(*args)
    with pytest.raises(ValueError, match=r"^colors \(1, 3\) not inside window"):
        string_parameter(dg, 1, 0, 3, 1, 3, Interval(1, 2))
    with pytest.raises(ValueError, match="^interval \\[1, 6\\] exceeds rank 5$"):
        string_parameter(dg, 1, 0, 3, 1, 3, Interval(1, 6))


def _ends(window):
    return window.lo, window.hi


def _reach(window, i, j):
    """d([i, j], boundary of the window); negative when i or j lies outside it."""
    return min(min(i, j) - window.lo, window.hi - max(i, j))


def test_minimal_window_examples():
    assert _ends(minimal_window(DynkinA(2), 2, 2, 1, 1, 4)) == (1, 2)
    assert _ends(minimal_window(DynkinA(3), 2, 1, 2, 1, 4)) == (1, 3)
    assert _ends(minimal_window(DynkinA(3), 3, 3, 1, 2, 7)) == (1, 3)
    assert minimal_window(DynkinA(3), 1, 1, 2, 1, 9) is None


def test_set_shape_properties():
    'parity, cardinality, extremes, and symmetry on a small exhaustive grid'
    for n in range(1, 6):
        dg, nodes = DynkinA(n), range(1, n + 1)
        windows = [Interval(a, b) for a in nodes for b in nodes if a <= b]
        for i, j in itertools.product(nodes, repeat=2):
            for window in windows:
                reach = _reach(window, i, j)
                if reach < 0:
                    continue
                for r, s in itertools.product(range(1, 4), repeat=2):
                    rs = r_set(dg, i, r, j, s, window)
                    assert rs == r_set(dg, j, s, i, r, window)
                    assert all(m > 0 for m in rs)
                    d = abs(i - j)
                    assert all((m - r - s - d) % 2 == 0 for m in rs)
                    assert len(rs) == min(r, s) + reach
                    assert max(rs) == r + s + d + 2 * reach
                    assert min(rs) == r + s + d - 2 * (min(r, s) - 1)


def test_monotonicity_in_window():
    dg, nodes = DynkinA(5), range(1, 6)
    for i, j in itertools.product(nodes, repeat=2):
        windows = [Interval(a, b) for a in nodes for b in nodes
                   if a <= b and _reach(Interval(a, b), i, j) >= 0]
        for small, big in itertools.product(windows, repeat=2):
            if _reach(big, small.lo, small.hi) < 0:
                continue
            for r, s in ((1, 1), (2, 3)):
                assert set(r_set(dg, i, r, j, s, small)) <= \
                    set(r_set(dg, i, r, j, s, big))


def test_range_matches_enumerated_set():
    'the step-2 range equals the set enumerated from its closed form'
    for n in range(1, 9):
        dg, nodes = DynkinA(n), range(1, n + 1)
        windows = [Interval(a, b) for a in nodes for b in nodes if a <= b]
        for window in windows:
            for i, j in itertools.product(range(window.lo, window.hi + 1), repeat=2):
                reach = _reach(window, i, j)
                for r, s in itertools.product(range(1, 7), repeat=2):
                    base = r + s + abs(i - j)
                    expected = frozenset(base - 2 * p for p in range(-reach, min(r, s)))
                    assert tuple(r_set(dg, i, r, j, s, window)) == tuple(sorted(expected))


def test_string_parameter_round_trip():
    for n in range(1, 6):
        dg = DynkinA(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            for r, s in itertools.product(range(1, 4), repeat=2):
                for m in r_set(dg, i, r, j, s):
                    p = string_parameter(dg, i, r, j, s, m)
                    assert p is not None
                    assert r + s + abs(i - j) - 2 * p == m


def _interval_string_parameter(diagram, i, r, j, s, m, window=None):
    """string_parameter as it was written over Interval objects."""
    if window is None:
        window = Interval(1, diagram.n)
    if window.hi > diagram.n:
        raise ValueError(f"interval [{window.lo}, {window.hi}] exceeds rank {diagram.n}")
    if _reach(window, i, j) < 0:
        raise ValueError(f"colors ({i}, {j}) not inside window "
                         f"[{window.lo}, {window.hi}]")
    if m <= 0:
        return None
    twice_p = r + s + abs(i - j) - m
    if twice_p % 2 != 0:
        return None
    p = twice_p // 2
    if -_reach(window, i, j) <= p < min(r, s):
        return p
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_string_parameter_matches_interval_oracle():
    'same value or error everywhere, colors outside the window and m <= 0 included'
    for n in range(1, 7):
        dg, nodes = DynkinA(n), range(1, n + 1)
        windows = [None] + [Interval(a, b) for a in range(1, n + 2)
                            for b in range(a, n + 2)]
        for window, i, j in itertools.product(windows, nodes, nodes):
            args = (dg, i, 1, j, 1, 1, window)
            want = _outcome(_interval_string_parameter, *args)
            assert _outcome(string_parameter, *args) == want, args
            if isinstance(want, str):
                continue  # the window and color checks come before any use of r, s, m
            for r, s in itertools.product(range(1, 5), repeat=2):
                for m in range(-1, r + s + n + 2):
                    args = (dg, i, r, j, s, m, window)
                    assert _outcome(string_parameter, *args) == \
                        _outcome(_interval_string_parameter, *args), args


def test_string_parameter_defers_its_errors_to_r_set(monkeypatch):
    'a valid input makes no r_set call; an invalid one raises exactly its error'
    calls = []

    def counted(*args):
        calls.append(args)
        return r_set(*args)

    monkeypatch.setattr(qfgraph.redsets, "r_set", counted)
    for n in range(1, 6):
        dg, colors = DynkinA(n), range(n + 2)
        windows = [None] + [Interval(a, b) for a in range(1, n + 2)
                            for b in range(a, n + 2)]
        for window, i, j in itertools.product(windows, colors, colors):
            for r, s in itertools.product(range(-1, 3), repeat=2):
                want = _outcome(r_set, dg, i, r, j, s, window)
                for m in range(-1, r + s + n + 2):
                    calls.clear()
                    got = _outcome(string_parameter, dg, i, r, j, s, m, window)
                    if isinstance(want, str):
                        assert (got, len(calls)) == (want, 1), (n, window, i, r, j, s, m)
                    else:
                        assert not calls and (got is not None) == (m in want)


def test_minimal_window_brute_force():
    'formula window is admissible, minimal, and the unique minimum by inclusion'
    for n in range(1, 7):
        dg, nodes = DynkinA(n), range(1, n + 1)
        windows = [Interval(a, b) for a in nodes for b in nodes if a <= b]
        for i, j in itertools.product(nodes, repeat=2):
            for r, s in itertools.product(range(1, 4), repeat=2):
                for m in r_set(dg, i, r, j, s):
                    formula = minimal_window(dg, i, r, j, s, m)
                    admissible = [
                        w for w in windows
                        if _reach(w, i, j) >= 0 and m in r_set(dg, i, r, j, s, w)]
                    assert _ends(formula) in map(_ends, admissible)
                    assert all(_reach(w, formula.lo, formula.hi) >= 0 for w in admissible)


def test_redsets_algebra_computes_each_window_set_once(monkeypatch):
    'one whole-diagram set per case, then one windowed set and its symmetric twin'
    calls, case = Counter(), None

    def counted(diagram, i, r, j, s, window=None):
        nonlocal case
        if window is None:
            case = (diagram.n, i, r, j, s)
        calls[case] += 1
        return r_set(diagram, i, r, j, s, window)

    monkeypatch.setattr(qfgraph.sweeps, "r_set", counted)
    result = check_redsets_algebra(3, 2)
    assert result.passed
    expected = {(n, i, r, j, s): 1 + 2 * min(i, j) * (n - max(i, j) + 1)
                for n in range(1, 4) for i, j in itertools.product(range(1, n + 1), repeat=2)
                for r, s in itertools.product((1, 2), repeat=2)}
    assert calls == expected


def test_redsets_algebra_catches_a_set_missing_its_top(monkeypatch):
    'the reused window sets still reach every check: one short set fails the sweep'
    def dropped(diagram, i, r, j, s, window=None):
        rs = r_set(diagram, i, r, j, s, window)
        if window is not None and (diagram.n, i, r, j, s, *_ends(window)) == \
                (3, 2, 1, 2, 1, 1, 3):
            return rs[:-1]
        return rs

    monkeypatch.setattr(qfgraph.sweeps, "r_set", dropped)
    result = check_redsets_algebra(3, 2)
    assert not result.passed
    assert result.failures == [
        "cardinality fails (2, 1, 2, 1, Interval(lo=1, hi=3))",
        "extremes/steps fail (2, 1, 2, 1, Interval(lo=1, hi=3))",
        "minimal window not admissible 2,1,2,1 m=4",
    ]


def test_redsets_algebra_catches_a_windowed_set_grown_at_the_top(monkeypatch):
    'a set grown past its reach is no longer inside the sets of the windows around it'
    def grown(diagram, i, r, j, s, window=None):
        rs = r_set(diagram, i, r, j, s, window)
        if window is not None and (diagram.n, i, r, j, s, *_ends(window)) == \
                (3, 2, 1, 2, 1, 2, 2):
            return range(rs.start, rs.stop + 2, 2)
        return rs

    monkeypatch.setattr(qfgraph.sweeps, "r_set", grown)
    result = check_redsets_algebra(3, 2)
    assert result.checked == 218
    assert result.failures == [
        "cardinality fails (2, 1, 2, 1, Interval(lo=2, hi=2))",
        "extremes/steps fail (2, 1, 2, 1, Interval(lo=2, hi=2))",
        "string-parameter round trip fails (2, 1, 2, 1, Interval(lo=2, hi=2)) m=4",
        "monotonicity fails 2,1,2,1 Interval(lo=2, hi=2) vs Interval(lo=1, hi=2)",
        "monotonicity fails 2,1,2,1 Interval(lo=2, hi=2) vs Interval(lo=2, hi=3)",
    ]


def test_redsets_algebra_catches_a_widened_minimal_window(monkeypatch):
    'a window one node wider than the formula, where the rank allows, is not minimal'
    def widened(diagram, i, r, j, s, m):
        w = minimal_window(diagram, i, r, j, s, m)
        return Interval(max(w.lo - 1, 1), min(w.hi + 1, diagram.n))

    monkeypatch.setattr(qfgraph.sweeps, "minimal_window", widened)
    result = check_redsets_algebra(3, 2)
    assert not result.passed
    assert result.failures == [
        "minimal window not unique minimum 1,1,1,1 m=2",
        "minimal window not minimal 1,1,1,1 m=2",
        "minimal window not unique minimum 1,1,1,2 m=3",
        "minimal window not minimal 1,1,1,2 m=3",
        "minimal window not unique minimum 1,2,1,1 m=3",
    ]


def test_redsets_algebra_catches_a_hull_minimal_window(monkeypatch):
    'the hull of the two colors, whatever the gap, is not always admissible'
    monkeypatch.setattr(qfgraph.sweeps, "minimal_window",
                        lambda diagram, i, r, j, s, m: Interval(min(i, j), max(i, j)))
    result = check_redsets_algebra(3, 2)
    assert not result.passed
    assert result.failures == [
        "minimal window not admissible 2,1,2,1 m=4",
        "minimal window not admissible 2,1,2,2 m=5",
        "minimal window not admissible 2,2,2,1 m=5",
        "minimal window not admissible 2,2,2,2 m=6",
    ]


@pytest.mark.parametrize("site, loosened", [("a - lo", "a + lo"), ("hi - b", "hi + b")])
def test_redsets_algebra_catches_a_loosened_string_parameter(monkeypatch, site, loosened):
    'a window test loosened on either side answers one step past the set'
    source = textwrap.dedent(inspect.getsource(string_parameter))
    mutant = source.replace(site, loosened)
    assert source.count(site) == 1 and mutant != source
    namespace = dict(vars(qfgraph.redsets))
    exec(mutant, namespace)
    monkeypatch.setattr(qfgraph.sweeps, "string_parameter", namespace["string_parameter"])
    result = check_redsets_algebra(8, 5)
    assert result.checked == 47016
    assert not result.passed
    assert all(f.startswith("string parameter off the set ") for f in result.failures)
