"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact; the stated runtime ceilings are asserted too.
"""

import itertools
import time
from math import comb

from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.fixtures import run_example
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


def run_fixture(number: int, label: str, name: str):
    """Criteria 1-3 are the fixture runners' checks, every one of which must pass."""
    start = time.time()
    result = run_example(name)
    ok = result.all_passed()
    if not ok:
        print("\n".join(line for line in result.lines() if line.startswith("FAIL")))
    report(number, label, ok, time.time() - start, 1.0)


def test_criterion_1_three_vertex_family():
    run_fixture(1, "weight-threshold family", "newprimex")


def test_criterion_2_cut_booleans():
    run_fixture(2, "four-cycle cut booleans", "cesubpt")


def test_criterion_3_four_vertex_tree():
    run_fixture(3, "four-vertex tree reproduction", "cosubpt")


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
