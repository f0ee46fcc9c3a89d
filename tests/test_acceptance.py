"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact; the stated runtime ceilings are asserted too.
"""

import itertools
import time
from math import comb

from qfgraph.decision import (NOT_PRIME, PRIME, REAL, UNKNOWN,
                              alt_line_cut_simple, is_prime, is_real)
from qfgraph.decision import _alt_configs
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.fixtures import cosubpt_factors, newprimex_factors
from qfgraph.graph import build_graph
from qfgraph.qchar import fundamental_qchar, socle_head
from qfgraph.redsets import r_set
from qfgraph.sweeps import (check_c3aline, check_confluence,
                            check_dominant_pair, check_duality,
                            check_forms_agree, check_redsets_algebra)


def report(number: int, label: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status}: criterion {number} ({label}) in {elapsed:.2f}s "
          f"(limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_1_three_vertex_family():
    start = time.time()
    ok = True
    dg, factors = newprimex_factors(1)
    g = build_graph(factors, dg)
    ok &= g.was_refactorized
    ok &= g.vertices == (KRFactor(1, 3, 2), KRFactor(2, 0, 2))
    ok &= len(g.arrows) == 1 and g.arrows[0].epsilon == 3
    for r in range(2, 9):
        dg, factors = newprimex_factors(r)
        verdict = is_prime(build_graph(factors, dg)).primality
        ok &= verdict == (NOT_PRIME if r == 2 else PRIME)
    report(1, "weight-threshold family", ok, time.time() - start, 1.0)


def test_criterion_2_cut_booleans():
    start = time.time()
    factors = [KRFactor(1, 7, 2), KRFactor(1, 0, 1),
               KRFactor(2, 4, 2), KRFactor(2, 3, 1)]
    g = build_graph(factors, DynkinA(2))
    ids = {g.vertices[v].label(): v for v in range(len(g))}
    mid = ids["1^1@0"]
    first = alt_line_cut_simple(_alt_configs(g, mid, ids["2^2@4"], ids["2^1@3"]))
    second = alt_line_cut_simple(_alt_configs(g, mid, ids["2^1@3"], ids["2^2@4"]))
    ok = first is False and second is True
    report(2, "four-cycle cut booleans", ok, time.time() - start, 1.0)


def test_criterion_3_four_vertex_tree():
    start = time.time()
    dg, factors = cosubpt_factors()
    g = build_graph(factors, dg)
    labels = {(g.vertices[a.tail].label(), g.vertices[a.head].label(), a.epsilon)
              for a in g.arrows}
    ok = labels == {("3^1@8", "2^1@5", 3), ("2^1@5", "1^2@1", 4),
                    ("3^3@6", "1^2@1", 5)}
    ids = {g.vertices[v].label(): v for v in range(len(g))}
    ok &= not g.adjacent(ids["3^1@8"], ids["1^2@1"])
    triples = [g.induced((v, a, b)) for v in range(len(g))
               for a, b in itertools.combinations(g.undirected_neighbors(v), 2)]
    ok &= len(triples) == 2
    ok &= all(is_prime(t).primality == PRIME for t in triples)
    mid = ids["1^2@1"]
    ok &= alt_line_cut_simple(
        _alt_configs(g, mid, ids["2^1@5"], ids["3^3@6"])) is False
    ok &= alt_line_cut_simple(
        _alt_configs(g, mid, ids["3^3@6"], ids["2^1@5"])) is False
    verdict = is_prime(g).primality
    ok &= verdict == UNKNOWN and verdict != PRIME
    ok &= is_real(g).reality == REAL
    report(3, "four-vertex tree reproduction", ok, time.time() - start, 1.0)


def test_criterion_4_differential_equivalence():
    start = time.time()
    result = check_forms_agree(max_rank=6, max_weight=4)
    ok = result.passed and result.checked > 0
    if not ok:
        print(result.failures)
    report(4, f"forms agree on {result.checked} configurations", ok,
           time.time() - start, 300.0)


def test_criterion_5_symmetric_config_always_simple():
    start = time.time()
    result = check_c3aline(max_rank=6, max_weight=4)
    ok = result.passed and result.checked > 0
    if not ok:
        print(result.failures)
    report(5, f"symmetric cut simple on {result.checked} configurations", ok,
           time.time() - start, 60.0)


def test_criterion_6_duality_invariance():
    start = time.time()
    result = check_duality(trials=1000, seed=2024)
    ok = result.passed and result.checked == 1000
    if not ok:
        print(result.failures)
    report(6, "verdicts invariant under both dualities", ok,
           time.time() - start, 60.0)


def test_criterion_7_reducibility_set_algebra():
    start = time.time()
    result = check_redsets_algebra(max_rank=8, max_weight=5)
    ok = result.passed and result.checked > 0
    if not ok:
        print(result.failures)
    report(7, f"set algebra on {result.checked} cases", ok,
           time.time() - start, 60.0)


def test_criterion_8_qcharacters():
    start = time.time()
    ok = True
    for n in range(1, 9):
        dg = DynkinA(n)
        for i in range(1, n + 1):
            ok &= len(fundamental_qchar(dg, i)) == comb(n + 1, i)
    result = check_dominant_pair(max_rank=6)
    ok &= result.passed and result.checked > 0
    for n in range(1, 7):
        dg = DynkinA(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            for m in r_set(dg, i, 1, j, 1):
                sh = socle_head(dg, i, j, m)
                if len(sh.socle) == 2:
                    a, b = sh.socle
                    ok &= abs(a.exponent - b.exponent) not in \
                        r_set(dg, a.color, 1, b.color, 1)
    sh = socle_head(DynkinA(2), 1, 1, 2)
    dims = {(2, 0): 6, (0, 1): 3, (1, 0): 3}
    ok &= dims[(1, 0)] ** 2 == dims[(2, 0)] + dims[(0, 1)]
    ok &= sh.socle == (KRFactor(2, 1, 1),)
    report(8, "q-character counts, dominant pairs, socle identity", ok,
           time.time() - start, 60.0)


def test_criterion_9_factorization_confluence():
    start = time.time()
    result = check_confluence(trials=1000, seed=7)
    ok = result.passed and result.checked == 1000
    if not ok:
        print(result.failures)
    report(9, "merge-order independence and idempotence", ok,
           time.time() - start, 30.0)
