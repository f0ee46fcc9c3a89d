"""Category C_1 of type A_n (Hernandez-Leclerc) as an exact census of the engine.

C_1 holds the modules whose roots lie at (i, xi_i) and (i, xi_i + 2), with
xi_i = i mod 2, up to one global shift.  It categorifies a cluster algebra of
finite type A_n, so its prime simple modules are the n(n + 3)/2 cluster
variables and the n frozen variables: n(n + 5)/2 in all.  The two roots of
one color make the weight-2 KR factor, a frozen variable; normalize merges
them.  Over the 2^(2n) - 1 multiplicity-free inputs a sound engine answers
`prime` at most n(n + 5)/2 times, so a wrong `prime` breaks the first bound
below.  If every prime of C_1 is multiplicity-free, it answers `not_prime`
at most 2^(2n) - 1 - n(n + 5)/2 times, so a wrong `not_prime` breaks the
second; the engine gives no input with a repeated root `prime`, either.
"""

import itertools
from collections import Counter

from qfgraph.decision import NOT_PRIME, PRIME, UNKNOWN, is_prime
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.graph import build_graph

RANKS = range(1, 7)
# (prime, unknown) per rank: the unknown inputs are the alternating paths of
# four or more vertices, (n - 3)(n - 2)/2 of them.
HISTOGRAM = {1: (3, 0), 2: (7, 0), 3: (12, 0), 4: (17, 1), 5: (22, 3), 6: (27, 6)}


def c1_roots(n: int, xi, shift: int = 0) -> list[tuple[int, int]]:
    """The 2n roots of C_1 at rank n under the height function xi."""
    return [(i, xi(i) + shift + d) for i in range(1, n + 1) for d in (0, 2)]


def verdicts(n: int, roots, multiplicities):
    """(multiplicity tuple, verdict) for each nonzero choice of multiplicities."""
    diagram = DynkinA(n)
    for mult in itertools.product(multiplicities, repeat=len(roots)):
        if any(mult):
            factors = [KRFactor(c, e, 1) for (c, e), k in zip(roots, mult)
                       for _ in range(k)]
            yield mult, is_prime(build_graph(factors, diagram))


def census(n: int, roots) -> Counter:
    """Histogram of (primality, rule) over the multiplicity-free inputs."""
    return Counter((v.primality, v.certificate[0].rule)
                   for _, v in verdicts(n, roots, (0, 1)))


def test_c1_multiplicity_free_census_meets_the_cluster_count():
    'prime <= n(n+5)/2 <= prime + unknown at n <= 6, the same for both bipartitions and a shift'
    variants = {"i mod 2": lambda i: i % 2, "(i + 1) mod 2": lambda i: (i + 1) % 2}
    for n in RANKS:
        hists = {name: census(n, c1_roots(n, xi)) for name, xi in variants.items()}
        hists["shifted"] = census(n, c1_roots(n, variants["i mod 2"], shift=5))
        hist = hists["i mod 2"]
        assert all(h == hist for h in hists.values()), (n, hists)
        assert sum(hist.values()) == 2 ** (2 * n) - 1
        assert {rule for primality, rule in hist if primality == NOT_PRIME} \
            <= {"disconnected"}, (n, hist)
        prime, unknown = (sum(count for (primality, _), count in hist.items()
                              if primality == want) for want in (PRIME, UNKNOWN))
        assert prime <= n * (n + 5) // 2 <= prime + unknown, (n, hist)
        assert (prime, unknown) == HISTOGRAM[n], (n, hist)


def test_c1_no_repeated_root_is_prime():
    'root multiplicities up to 2 at n <= 4: an input with a repeated root never gets prime'
    for n in range(1, 5):
        repeated = Counter(v.primality
                           for mult, v in verdicts(n, c1_roots(n, lambda i: i % 2), (0, 1, 2))
                           if 2 in mult)
        assert sum(repeated.values()) == 3 ** (2 * n) - 2 ** (2 * n)
        assert repeated[PRIME] == 0, (n, repeated)
