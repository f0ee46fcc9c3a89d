"""Exhaustive and randomized property sweeps.

These drive the package's cross-checks: the engine's membership form of the
cut-simplicity test against the string-parameter forms defined here, the
always-simple symmetric configuration, the closed two-element dominant set
against the brute-force product, the reducibility-set algebra against brute
force, verdict invariance under the two dualities (defined here) and the
arrows of each dual, and the level-set q-string factorization against a
random-order pairwise merge.
The CLI `sweep` command and the acceptance tests both run through here.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict

from .decision import (_cut_params, alt_line_cut_simple, dual_pair_simple, is_prime,
                       is_real, isolating_arrow)
from .drinfeld import DrinfeldPoly, KRFactor, dual, expand_all, q_factorize
from .dynkin import DynkinA, Interval
from .graph import QFactGraph, build_graph, classify
from .qchar import LWeight, dominant_product_lweights, fundamental_qchar, socle_head
from .redsets import minimal_window, r_set, string_parameter

# Counterexamples a sweep keeps; it goes on counting cases after that.
MAX_FAILURES = 5

# Largest bounds the `sweep` command accepts, so that its largest run takes
# under a minute (one core of a 2-vCPU Intel Xeon VM, Python 3.11):
# forms-agree at rank 9 and weight 6 checks 3.1 10^6 cases in 9-11 s,
# redsets-algebra at the same bounds 1.1 10^5 cases in 0.4 s,
# dominant-pair at rank 9 takes 0.75 s, and duality at 150 000 trials 27 s.
# Without caps, `--max-rank 1000` never finishes.  The keys are the names of
# the checks' parameters.
SWEEP_CAPS = {"max_rank": 9, "max_weight": 6, "trials": 150_000}

# Same-color factors coalesce when their gap lies in the rank-one set,
# r_set(RANK_ONE, 1, r, 1, s).
RANK_ONE = DynkinA(1)


class SweepResult:
    __slots__ = ("name", "checked", "failures")

    def __init__(self, name: str) -> None:
        self.name, self.checked, self.failures = name, 0, []

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(message)

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"{status}: {self.name} ({self.checked} cases checked)"]
        out.extend(f"  counterexample: {f}" for f in self.failures)
        return out


def iter_linked_pairs(diagram: DynkinA, max_weight: int):
    """All (i, r, j, s, m) with m an admissible arrow gap between dissociate factors."""
    weights = range(1, max_weight + 1)
    for i, j in itertools.product(range(1, diagram.n + 1), repeat=2):
        for r, s in itertools.product(weights, repeat=2):
            link = r_set(RANK_ONE, 1, r, 1, s) if i == j else ()
            for m in r_set(diagram, i, r, j, s):
                if m not in link:
                    yield i, r, j, s, m


def iter_isolating_arrows(max_rank: int, max_weight: int):
    """All valid alternating-line configurations up to the given bounds,
    grouped by isolating arrow: (diagram, (i, r, j, s, m), partners).

    Each config joins a linked pair (i, r, j, s, m) of a rank to one that
    leaves its middle, (j, s, j', s', m'), both in iter_linked_pairs order;
    a join is refused when its ends are joined or, of one color, coalesce.
    The partners (j', s', m') of each linked pair are its joins, in order.
    """
    weights = range(1, max_weight + 1)
    pairs = list(itertools.product(weights, repeat=2))
    # Every set is computed once: the rank-one sets here, each rank's below.
    link = {(r, s): r_set(RANK_ONE, 1, r, 1, s) for r, s in pairs}
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        nodes = range(1, n + 1)
        sets = {(i, r, j, s): r_set(diagram, i, r, j, s)
                for i, j in itertools.product(nodes, repeat=2) for r, s in pairs}
        linked = list(iter_linked_pairs(diagram, max_weight))
        leaving = defaultdict(list)
        for i, r, j, s, m in linked:
            leaving[i, r].append((j, s, m))
        for i, r, j, s, m in linked:
            yield diagram, (i, r, j, s, m), [
                (jp, sp, mp) for jp, sp, mp in leaving[j, s]
                if (gap := abs(m - mp)) not in sets[i, r, jp, sp]
                and (i != jp or gap not in link[r, sp])]


def hull_distance(i: int, j: int, k: int) -> int:
    """Distance from node k to the interval spanned by i and j."""
    lo, hi = (i, j) if i <= j else (j, i)
    return max(lo - k, k - hi, 0)


def sign_split(line: tuple, p: int, pp: int) -> tuple[int, int]:
    """The sign-split pair (p_plus, p_minus) of the string parameters p, p'.

    `line` is a config's (i, r, m, j, s, j', s', m').  The pair rewrites the
    gap m - m' in both signs: m - m' = r + s' + d(i, j') - 2 p_plus and the
    negated identity for p_minus.  Both identities are checked exactly.
    """
    i, r, m, j, _, jp, sp, mp = line
    p_plus = sp - pp + p + hull_distance(i, j, jp)
    p_minus = r - p + pp + hull_distance(j, jp, i)
    base = r + sp + abs(i - jp)
    if m - mp != base - 2 * p_plus or mp - m != base - 2 * p_minus:
        raise AssertionError("sign-split identities violated")
    return p_plus, p_minus


def ineq_forms(diagram: DynkinA, line: tuple, p: int) -> tuple[int, bool, bool]:
    """(p', general conditions, cut simple) via the string-parameter system.

    Exists solely for differential testing.  `line` is a config's
    (i, r, m, j, s, j', s', m'), p the string parameter of its isolating
    arrow, which the caller solves once per arrow, and p' that of the other
    arrow; d = d(j', [i,j]) is the offset of j' from the hull of i and j.
    The case split follows the sign of p: for p <= 0 the window widens the
    hull by -p on each side, the general conditions are d <= -p,
    -p' <= -p - d and r + p' - 1 in [p + d, min(r, s')), and the weight drop
    is r <= s'; for p > 0 they are d = 0, p' >= 0 and r - p + p' - 1 in
    [0, min(r, s')), and the weight drop is r <= s' or p != p'.
    """
    i, r, _, j, s, jp, sp, mp = line
    pp = string_parameter(diagram, j, s, jp, sp, mp)
    if p is None or pp is None:
        raise ValueError("arrow labels are outside the unrestricted reducibility sets")
    offset = hull_distance(i, j, jp)
    floor = min(r, sp)
    if p <= 0:
        general = (offset <= -p and -pp <= -p - offset
                   and p + offset <= r + pp - 1 < floor)
        return pp, general, general and r <= sp
    general = offset == 0 and pp >= 0 and 0 <= r - p + pp - 1 < floor
    return pp, general, general and (r <= sp or p != pp)


def extra_condition_uniform(line: tuple) -> bool:
    """Third rewriting of the weight-drop condition: m + r <= m' + s' + d(i, j')."""
    i, r, m, _, _, jp, sp, mp = line
    return m + r <= mp + sp + abs(i - jp)


def check_forms_agree(max_rank: int, max_weight: int) -> SweepResult:
    """Membership form == inequality form == uniform weight-drop rewriting,
    and the sign-split bounds under the general conditions.  The engine's
    per-arrow part and the oracle's p are computed once per isolating arrow."""
    result = SweepResult("forms-agree")

    def fail(what: str) -> None:  # the middle at exponent 0, both ends below it
        params = _cut_params(KRFactor(j, 0, s), KRFactor(i, -m, r), KRFactor(jp, -mp, sp))
        result.fail(f"{what} on {params} at rank {diagram.n}")

    for diagram, (i, r, j, s, m), partners in iter_isolating_arrows(max_rank, max_weight):
        arrow = isolating_arrow(diagram, i, r, j, s, m)
        p = string_parameter(diagram, i, r, j, s, m)
        for jp, sp, mp in partners:
            result.checked += 1
            line = (i, r, m, j, s, jp, sp, mp)
            member_form = alt_line_cut_simple(arrow, jp, sp, mp)
            pp, general, ineq_form = ineq_forms(diagram, line, p)
            if member_form != ineq_form:
                fail(f"forms disagree ({member_form} vs {ineq_form})")
            elif general:
                if member_form != extra_condition_uniform(line):
                    fail("uniform weight-drop rewriting disagrees")
                p_plus, p_minus = sign_split(line, p, pp)
                floor = min(r, sp)
                if m >= mp and p_plus < floor:
                    fail("p_plus bound fails")
                if m <= mp and p_minus < floor:
                    fail("p_minus bound fails")
                if p <= 0 and m >= mp and p_plus > sp:
                    fail("p_plus ceiling fails")
    return result


def check_c3aline(max_rank: int, max_weight: int) -> SweepResult:
    """The symmetric both-ends-equal configuration always has a simple cut."""
    result = SweepResult("c3aline")
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        for i, r, j, s, m in iter_linked_pairs(diagram, max_weight):
            result.checked += 1
            if not alt_line_cut_simple(isolating_arrow(diagram, i, r, j, s, m), i, r, m):
                result.fail(f"cut not simple for i={i} r={r} j={j} s={s} m={m} "
                            f"at rank {n}")
    return result


def check_dominant_pair(max_rank: int) -> SweepResult:
    """Brute-force dominant set == closed two-element form, for fundamentals."""
    result = SweepResult("dominant-pair")
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            qchar_i = set(fundamental_qchar(diagram, i))
            for m in r_set(diagram, i, 1, j, 1):
                result.checked += 1
                dominant = dominant_product_lweights(diagram, i, j, m)
                sh = socle_head(diagram, i, j, m)
                expected = {sh.head_lweight(), sh.socle_lweight()}
                if dominant != frozenset(expected):
                    result.fail(f"dominant set mismatch n={n} i={i} j={j} m={m}")
                    continue
                if len(dominant) != 2:
                    result.fail(f"dominant set size {len(dominant)} n={n} i={i} "
                                f"j={j} m={m}")
                omega_jm_inv = LWeight.fundamental(j, m, -1)
                for weight in dominant:
                    if weight * omega_jm_inv not in qchar_i:
                        result.fail(f"dominant weight not of top-times-left form "
                                    f"n={n} i={i} j={j} m={m}")
    return result


def _inside(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Does the window of hull offsets a lie inside the window of offsets b?"""
    return a[0] <= b[0] and a[1] <= b[1]


def check_redsets_algebra(max_rank: int, max_weight: int) -> SweepResult:
    """Symmetry, parity, cardinality, extremes, monotonicity, minimal windows,
    and string parameters on each set and one step past either end of it."""
    result = SweepResult("redsets-algebra")
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        nodes = range(1, n + 1)
        for i, j, k in itertools.product(nodes, repeat=3):
            result.checked += 1
            d_ij_k = hull_distance(i, j, k)
            d_kj_i = hull_distance(k, j, i)
            if d_ij_k + d_kj_i != abs(k - i):
                result.fail(f"hull-distance identity fails n={n} i={i} j={j} k={k}")
            if d_ij_k > min(abs(k - i), abs(k - j)):
                result.fail(f"hull-distance bound fails n={n} i={i} j={j} k={k}")
        windows = {(a, b): Interval(a, b) for a in nodes for b in nodes if a <= b}
        for i, j in itertools.product(nodes, repeat=2):
            lo, hi = (i, j) if i <= j else (j, i)  # the hull of i and j
            d = hi - lo
            # The windows [lo - x, hi + y] around the hull, by offsets (x, y).
            around = {(x, y): windows[lo - x, hi + y]
                      for x in range(lo - 1, -1, -1) for y in range(n - hi + 1)}
            nested = [(a, b) for pair in itertools.combinations(around, 2)
                      for a, b in (pair, pair[::-1]) if _inside(a, b)]
            for r, s in itertools.product(range(1, max_weight + 1), repeat=2):
                base = r + s + d
                global_set = r_set(diagram, i, r, j, s)
                global_members = set(global_set)
                members = {}  # the set of each window, by offsets
                for (x, y), window in around.items():
                    result.checked += 1
                    rs = r_set(diagram, i, r, j, s, window)
                    members[x, y] = set(rs)
                    params = (i, r, j, s, window)
                    if rs != r_set(diagram, j, s, i, r, window):
                        result.fail(f"symmetry fails {params}")
                    if any((e - base) % 2 for e in rs):
                        result.fail(f"parity fails {params}")
                    reach = min(x, y)
                    if len(rs) != min(r, s) + reach:
                        result.fail(f"cardinality fails {params}")
                    top = base + 2 * reach
                    bottom = base - 2 * (min(r, s) - 1)
                    if tuple(rs) != tuple(range(bottom, top + 1, 2)):
                        result.fail(f"extremes/steps fail {params}")
                    if not members[x, y] <= global_members:
                        result.fail(f"monotonicity into whole diagram fails {params}")
                    for m in rs:
                        p = string_parameter(diagram, i, r, j, s, m, window)
                        if p is None or base - 2 * p != m:
                            result.fail(f"string-parameter round trip fails "
                                        f"{params} m={m}")
                    for m in (bottom - 2, top + 2):
                        if string_parameter(diagram, i, r, j, s, m, window) is not None:
                            result.fail(f"string parameter off the set {params} m={m}")
                for a, b in nested:
                    if not members[a] <= members[b]:
                        result.fail(f"monotonicity fails {i},{r},{j},{s} "
                                    f"{around[a]} vs {around[b]}")
                for m in global_set:
                    result.checked += 1
                    formula = minimal_window(diagram, i, r, j, s, m)
                    admissible = [xy for xy, ms in members.items() if m in ms]
                    f = None if formula is None else (lo - formula.lo, formula.hi - hi)
                    if f not in admissible:
                        result.fail(f"minimal window not admissible {i},{r},{j},{s} m={m}")
                        continue
                    # f is the unique minimum when it has the least offset on
                    # both sides; only if not can another window lie inside it.
                    xs, ys = zip(*admissible)
                    if (min(xs), min(ys)) != f:
                        result.fail(f"minimal window not unique minimum "
                                    f"{i},{r},{j},{s} m={m}")
                        if any(_inside(xy, f) for xy in admissible if xy != f):
                            result.fail(f"minimal window not minimal "
                                        f"{i},{r},{j},{s} m={m}")
    return result


def random_tree_graph(rng: random.Random, max_rank: int = 5,
                      max_vertices: int = 5, max_weight: int = 3) -> QFactGraph:
    """A random q-factorization graph that is a tree, grown leaf by leaf.

    The factors so far are dissociate and form a tree, so a candidate leaf
    keeps both exactly when no same-color factor is linked to it (its gap
    in their rank-one set) and exactly one factor is joined to it (its gap
    in their reducibility set).  The graph is built once, at the end.
    """
    n = rng.randint(1, max_rank)
    diagram = DynkinA(n)
    factors = [KRFactor(rng.randint(1, n), 0, rng.randint(1, max_weight))]
    target = rng.randint(1, max_vertices)
    attempts = 0
    while len(factors) < target and attempts < 40:
        attempts += 1
        parent = rng.choice(factors)
        color = rng.randint(1, n)
        weight = rng.randint(1, max_weight)
        gaps = r_set(diagram, color, weight, parent.color, parent.weight)
        exponent = parent.exponent + rng.choice(gaps) * rng.choice((-1, 1))
        linked = any(f.color == color and abs(exponent - f.exponent)
                     in r_set(RANK_ONE, 1, f.weight, 1, weight) for f in factors)
        joined = sum(abs(exponent - f.exponent) in
                     r_set(diagram, f.color, f.weight, color, weight)
                     for f in factors)
        if not linked and joined == 1:
            factors.append(KRFactor(color, exponent, weight))
    return build_graph(factors, diagram)


def _flip(f: KRFactor) -> KRFactor:
    return KRFactor(f.color, -f.exponent, f.weight)


def arrow_dual(g: QFactGraph) -> QFactGraph:
    """Reverse every arrow by negating all exponents."""
    h = build_graph([_flip(v) for v in g.vertices], g.diagram)
    assert not h.was_refactorized
    return h


def color_dual(g: QFactGraph) -> QFactGraph:
    """Replace every vertex by its right dual over the whole diagram."""
    h = build_graph([dual(v, g.diagram) for v in g.vertices], g.diagram)
    assert not h.was_refactorized
    return h


def _arrow_multiset(g: QFactGraph) -> Counter:
    """The arrows of g as (tail factor, head factor, label), with copies counted."""
    return Counter((g.vertices[a.tail], g.vertices[a.head], a.epsilon) for a in g.arrows)


def check_duality(trials: int, seed: int) -> SweepResult:
    """Verdicts are invariant under arrow reversal and the diagram automorphism,
    the arrow dual reverses every arrow and the color dual keeps each one, both
    with the same labels, and each non-adjacent pair's dual-pair test matches
    r_set membership of the dual's gap, a route through neither drinfeld.dual
    nor string_parameter."""
    result = SweepResult("duality")
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_tree_graph(rng)
        result.checked += 1
        dg, n = g.diagram, g.diagram.n
        for u, v in itertools.permutations(range(len(g)), 2):
            if g.adjacent(u, v):
                continue
            a, b = g.vertices[u], g.vertices[v]
            gap = abs(a.exponent - (n + 1) - b.exponent)
            simple = gap not in r_set(dg, n + 1 - a.color, a.weight, b.color, b.weight)
            if dual_pair_simple(dual(a, dg), b, dg) != simple:
                result.fail(f"dual-pair test disagrees with the string parameter "
                            f"for {a.label()}, {b.label()} at rank {n}")
        primality = is_prime(g).primality
        reality = is_real(g).reality
        tag = classify(g).tag
        # Both maps are injective on factors, so each arrow keeps its count.
        arrows = _arrow_multiset(g).items()
        flipped = Counter({(_flip(h), _flip(t), e): k for (t, h, e), k in arrows})
        kept = Counter({(dual(t, dg), dual(h, dg), e): k for (t, h, e), k in arrows})
        for label, h, expected in (("arrow", arrow_dual(g), flipped),
                                   ("color", color_dual(g), kept)):
            if is_prime(h).primality != primality or is_real(h).reality != reality:
                result.fail(f"{label}-dual verdict differs for "
                            f"{[v.label() for v in g.vertices]} at rank {g.diagram.n}")
            if classify(h).tag != tag:
                result.fail(f"{label}-dual shape tag differs for "
                            f"{[v.label() for v in g.vertices]} at rank {g.diagram.n}")
            if _arrow_multiset(h) != expected:
                result.fail(f"{label}-dual arrows differ for "
                            f"{[v.label() for v in g.vertices]} at rank {g.diagram.n}")
    return result


def random_poly(rng: random.Random) -> DrinfeldPoly:
    """Up to 10 roots with colors up to a random rank of at most 5."""
    n = rng.randint(1, 5)
    count = rng.randint(1, 10)
    roots = [(rng.randint(1, n), rng.randint(-6, 6)) for _ in range(count)]
    return DrinfeldPoly.from_roots(roots)


def _merge_once(segments: list[tuple[int, int]], rng: random.Random) -> bool:
    """Coalesce one linked pair of q-strings in place; False when none is left.

    Segments are (lo, hi) spans on the exponent lattice with step 2.  Two
    strings of weights r, s and center gap g are linked exactly when g lies
    in the rank-one reducibility set of (r, s); they are then replaced by the
    span union and, if they overlap, the span intersection (so the root
    multiset is preserved).
    """
    order = list(range(len(segments)))
    rng.shuffle(order)
    for pos_a in range(len(order)):
        for pos_b in range(pos_a + 1, len(order)):
            a, b = order[pos_a], order[pos_b]
            lo_a, hi_a = segments[a]
            lo_b, hi_b = segments[b]
            if (lo_a - lo_b) % 2 != 0:
                continue
            wa = (hi_a - lo_a) // 2 + 1
            wb = (hi_b - lo_b) // 2 + 1
            gap = abs((lo_a + hi_a) - (lo_b + hi_b)) // 2
            if gap not in r_set(RANK_ONE, 1, wa, 1, wb):
                continue
            union = (min(lo_a, lo_b), max(hi_a, hi_b))
            inter_lo, inter_hi = max(lo_a, lo_b), min(hi_a, hi_b)
            for idx in sorted((a, b), reverse=True):
                del segments[idx]
            segments.append(union)
            if inter_lo <= inter_hi:
                segments.append((inter_lo, inter_hi))
            return True
    return False


def merge_factorize(poly: DrinfeldPoly, rng: random.Random) -> tuple[KRFactor, ...]:
    """Oracle for q_factorize: merge linked pairs of roots until none is left.

    The rng randomizes the merge order; the normal form it reaches does not
    depend on that order.
    """
    factors: list[KRFactor] = []
    for color in sorted({c for c, _ in poly.roots}):
        segments = [(e, e) for c, e in poly.roots if c == color]
        while _merge_once(segments, rng):
            pass
        for lo, hi in segments:
            factors.append(KRFactor(color, (lo + hi) // 2, (hi - lo) // 2 + 1))
    return tuple(sorted(factors))


def check_confluence(trials: int, seed: int) -> SweepResult:
    """Level-set q-factorization == random-order pairwise merge; idempotent."""
    result = SweepResult("confluence")
    rng = random.Random(seed)
    for _ in range(trials):
        poly = random_poly(rng)
        result.checked += 1
        reference = q_factorize(poly)
        if expand_all(reference) != poly:
            result.fail(f"root multiset not preserved for {poly.roots}")
            continue
        if q_factorize(expand_all(reference)) != reference:
            result.fail(f"not idempotent for {poly.roots}")
            continue
        for _ in range(3):
            if merge_factorize(poly, rng) != reference:
                result.fail(f"merge oracle disagrees for {poly.roots}")
                break
    return result


CHECKS = {
    "forms-agree": check_forms_agree,
    "c3aline": check_c3aline,
    "dominant-pair": check_dominant_pair,
    "redsets-algebra": check_redsets_algebra,
    "duality": check_duality,
    "confluence": check_confluence,
}
