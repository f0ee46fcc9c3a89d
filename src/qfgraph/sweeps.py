"""Exhaustive and randomized property sweeps.

These drive the package's cross-checks: the engine's membership form of the
cut-simplicity test against the string-parameter forms defined here, the
always-simple symmetric configuration, the closed two-element dominant set
against the brute-force product, the reducibility-set algebra against brute
force, verdict invariance under the two dualities, and the level-set q-string
factorization against a random-order pairwise merge.
The CLI `sweep` command and the acceptance tests both run through here.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .decision import (AltLineConfig, alt_line_cut_simple,
                       cut_general_conditions, is_prime, is_real)
from .drinfeld import DrinfeldPoly, KRFactor, expand_all, q_factorize
from .dynkin import DynkinA, Interval
from .graph import QFactGraph, build_graph, classify
from .qchar import LWeight, dominant_product_lweights, fundamental_qchar, socle_head
from .redsets import minimal_window, r_set, sl2_set, string_parameter

# Counterexamples a sweep keeps; it goes on counting cases after that.
MAX_FAILURES = 5

# Largest bounds the `sweep` command accepts, so that its largest run takes
# about a minute (one core of a 2-vCPU Intel Xeon VM, Python 3.11):
# forms-agree at rank 9 and weight 6 checks 3.1 10^6 cases in 61 s,
# dominant-pair at rank 9 takes 10 s, and duality at 150 000 trials 48 s.
# Without caps, `--max-rank 1000` never finishes.
MAX_SWEEP_RANK = 9
MAX_SWEEP_WEIGHT = 6
MAX_SWEEP_TRIALS = 150_000


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
    for i, j in itertools.product(diagram.nodes(), repeat=2):
        for r, s in itertools.product(range(1, max_weight + 1), repeat=2):
            for m in r_set(diagram, i, r, j, s):
                if i == j and m in sl2_set(r, s):
                    continue
                yield i, r, j, s, m


def iter_alt_line_configs(max_rank: int, max_weight: int):
    """All valid alternating-line configurations up to the given bounds."""
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        for i, r, j, s, m in iter_linked_pairs(diagram, max_weight):
            for jp in diagram.nodes():
                for sp in range(1, max_weight + 1):
                    # mp is refused when the middle and the other end would
                    # coalesce, or when the two ends are joined or would.
                    middle_link = sl2_set(s, sp) if j == jp else ()
                    ends_linked = r_set(diagram, i, r, jp, sp)
                    ends_link = sl2_set(r, sp) if i == jp else ()
                    for mp in r_set(diagram, j, s, jp, sp):
                        if mp in middle_link:
                            continue
                        ends_gap = abs(m - mp)
                        if ends_gap in ends_linked or ends_gap in ends_link:
                            continue
                        yield AltLineConfig(diagram, i, r, m, j, s, jp, sp, mp)


class CaseParams(namedtuple("CaseParams", "p p_prime p_plus p_minus")):
    """String parameters of both arrows and the sign-split pair."""

    __slots__ = ()


def case_parameters(cfg: AltLineConfig) -> CaseParams:
    """Solve for the string parameters of both arrows and the sign-split pair.

    The pair (p_plus, p_minus) rewrites the gap m - m' in both signs:
    m - m' = r + s' + d(i, j') - 2 p_plus and the negated identity for
    p_minus.  Both identities are checked exactly.
    """
    dg = cfg.diagram
    i, r, m = cfg.iso_color, cfg.iso_weight, cfg.iso_label
    j, s = cfg.middle_color, cfg.middle_weight
    jp, sp, mp = cfg.other_color, cfg.other_weight, cfg.other_label
    p = string_parameter(dg, i, r, j, s, m)
    pp = string_parameter(dg, j, s, jp, sp, mp)
    if p is None or pp is None:
        raise ValueError("arrow labels are outside the unrestricted reducibility sets")
    p_plus = sp - pp + p + dg.hull_distance(i, j, jp)
    p_minus = r - p + pp + dg.hull_distance(j, jp, i)
    base = r + sp + dg.distance(i, jp)
    if m - mp != base - 2 * p_plus or mp - m != base - 2 * p_minus:
        raise AssertionError("sign-split identities violated")
    return CaseParams(p, pp, p_plus, p_minus)


def alt_line_conditions_ineq(cfg: AltLineConfig) -> bool:
    """Same predicate as alt_line_cut_simple via the string-parameter system.

    Exists solely for differential testing.  The case split follows the sign
    of p: for p <= 0 the window widens the hull by -p on each side and the
    conditions become -p' <= -p - d(j', [i,j]), the shifted parameter
    r + p' - 1 landing in [p + d(j', [i,j]), min(r, s')), and r <= s'; for
    p > 0 they become j' in [i,j], p' >= 0, r - p + p' - 1 in [0, min(r, s')),
    and (r <= s' or p != p').  The hull [lo, hi] of i and j and the window
    stay plain integers; `cfg.window` is not read.
    """
    dg = cfg.diagram
    i, r = cfg.iso_color, cfg.iso_weight
    j, s = cfg.middle_color, cfg.middle_weight
    jp, sp = cfg.other_color, cfg.other_weight
    p = string_parameter(dg, i, r, j, s, cfg.iso_label)
    pp = string_parameter(dg, j, s, jp, sp, cfg.other_label)
    if p is None or pp is None:
        raise ValueError("arrow labels are outside the unrestricted reducibility sets")
    lo, hi = (i, j) if i <= j else (j, i)
    offset = max(lo - jp, jp - hi, 0)
    if p <= 0:
        if not lo + p <= jp <= hi - p:
            return False
        if -pp > -p - offset:
            return False
        shifted = r + pp - 1
        if not (p + offset <= shifted < min(r, sp)):
            return False
        return r <= sp
    if not lo <= jp <= hi:
        return False
    if pp < 0:
        return False
    shifted = r - p + pp - 1
    if not (0 <= shifted < min(r, sp)):
        return False
    return r <= sp or p != pp


def extra_condition_uniform(cfg: AltLineConfig) -> bool:
    """Third rewriting of the weight-drop condition: m + r <= m' + s' + d(i, j')."""
    dg = cfg.diagram
    return (cfg.iso_label + cfg.iso_weight
            <= cfg.other_label + cfg.other_weight
            + dg.distance(cfg.iso_color, cfg.other_color))


def check_forms_agree(max_rank: int, max_weight: int) -> SweepResult:
    """Membership form == inequality form == uniform weight-drop rewriting."""
    result = SweepResult("forms-agree")
    for cfg in iter_alt_line_configs(max_rank, max_weight):
        result.checked += 1
        member_form = alt_line_cut_simple(cfg)
        ineq_form = alt_line_conditions_ineq(cfg)
        if member_form != ineq_form:
            result.fail(f"forms disagree ({member_form} vs {ineq_form}) "
                        f"on {cfg.params_json()} at rank {cfg.diagram.n}")
            continue
        general = cut_general_conditions(cfg)
        if member_form and not general:
            result.fail(f"cut simple without general conditions: {cfg.params_json()}")
        if general:
            if member_form != extra_condition_uniform(cfg):
                result.fail(f"uniform weight-drop rewriting disagrees "
                            f"on {cfg.params_json()} at rank {cfg.diagram.n}")
            _assert_sweep_bounds(cfg, result)
    return result


def _assert_sweep_bounds(cfg: AltLineConfig, result: SweepResult) -> None:
    """Bound assertions on the sign-split parameters under the general conditions."""
    params = case_parameters(cfg)
    r, sp = cfg.iso_weight, cfg.other_weight
    m, mp = cfg.iso_label, cfg.other_label
    floor = min(r, sp)
    if m >= mp and params.p_plus < floor:
        result.fail(f"p_plus bound fails on {cfg.params_json()}")
    if m <= mp and params.p_minus < floor:
        result.fail(f"p_minus bound fails on {cfg.params_json()}")
    if params.p <= 0 and m >= mp and params.p_plus > sp:
        result.fail(f"p_plus ceiling fails on {cfg.params_json()}")
    if params.p > 0:
        shifted = r - params.p + params.p_prime - 1
        if not 0 <= shifted < floor:
            result.fail(f"shifted-parameter window fails on {cfg.params_json()}")


def check_c3aline(max_rank: int, max_weight: int) -> SweepResult:
    """The symmetric both-ends-equal configuration always has a simple cut."""
    result = SweepResult("c3aline")
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        for i, r, j, s, m in iter_linked_pairs(diagram, max_weight):
            result.checked += 1
            cfg = AltLineConfig(diagram, i, r, m, j, s, i, r, m)
            if not alt_line_cut_simple(cfg):
                result.fail(f"cut not simple for i={i} r={r} j={j} s={s} m={m} "
                            f"at rank {n}")
    return result


def check_dominant_pair(max_rank: int) -> SweepResult:
    """Brute-force dominant set == closed two-element form, for fundamentals."""
    result = SweepResult("dominant-pair")
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        for i, j in itertools.product(diagram.nodes(), repeat=2):
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


def check_redsets_algebra(max_rank: int, max_weight: int) -> SweepResult:
    """Symmetry, parity, cardinality, extremes, monotonicity, minimal windows."""
    result = SweepResult("redsets-algebra")
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        for i, j, k in itertools.product(diagram.nodes(), repeat=3):
            result.checked += 1
            d_ij_k = diagram.hull_distance(i, j, k)
            d_kj_i = diagram.hull_distance(k, j, i)
            if d_ij_k + d_kj_i != diagram.distance(k, i):
                result.fail(f"hull-distance identity fails n={n} i={i} j={j} k={k}")
            if d_ij_k > min(diagram.distance(k, i), diagram.distance(k, j)):
                result.fail(f"hull-distance bound fails n={n} i={i} j={j} k={k}")
        windows = [Interval(a, b) for a in diagram.nodes() for b in diagram.nodes()
                   if a <= b]
        for i, j in itertools.product(diagram.nodes(), repeat=2):
            hull = Interval.hull(i, j)
            d = diagram.distance(i, j)
            containing = [w for w in windows if w.contains_interval(hull)]
            for r, s in itertools.product(range(1, max_weight + 1), repeat=2):
                base = r + s + d
                global_set = r_set(diagram, i, r, j, s)
                global_members = set(global_set)
                for window in containing:
                    result.checked += 1
                    rs = r_set(diagram, i, r, j, s, window)
                    params = (i, r, j, s, window)
                    if rs != r_set(diagram, j, s, i, r, window):
                        result.fail(f"symmetry fails {params}")
                    if any((e - base) % 2 for e in rs):
                        result.fail(f"parity fails {params}")
                    reach = window.boundary_distance(hull)
                    if len(rs) != min(r, s) + reach:
                        result.fail(f"cardinality fails {params}")
                    top = base + 2 * reach
                    bottom = base - 2 * (min(r, s) - 1)
                    if tuple(rs) != tuple(range(bottom, top + 1, 2)):
                        result.fail(f"extremes/steps fail {params}")
                    if not set(rs) <= global_members:
                        result.fail(f"monotonicity into whole diagram fails {params}")
                    for m in rs:
                        p = string_parameter(diagram, i, r, j, s, m, window)
                        if p is None or base - 2 * p != m:
                            result.fail(f"string-parameter round trip fails "
                                        f"{params} m={m}")
                for wa, wb in itertools.combinations(containing, 2):
                    small, big = (wa, wb) if wb.contains_interval(wa) else (wb, wa)
                    if big.contains_interval(small):
                        a_set = set(r_set(diagram, i, r, j, s, small))
                        b_set = set(r_set(diagram, i, r, j, s, big))
                        if not a_set <= b_set:
                            result.fail(f"monotonicity fails {i},{r},{j},{s} "
                                        f"{small} vs {big}")
                for m in global_set:
                    result.checked += 1
                    formula = minimal_window(diagram, i, r, j, s, m)
                    admissible = [w for w in containing
                                  if m in r_set(diagram, i, r, j, s, w)]
                    if formula is None or formula not in admissible:
                        result.fail(f"minimal window not admissible {i},{r},{j},{s} m={m}")
                        continue
                    if any(not w.contains_interval(formula) for w in admissible):
                        result.fail(f"minimal window not unique minimum "
                                    f"{i},{r},{j},{s} m={m}")
                    proper = [w for w in containing
                              if formula.contains_interval(w) and w != formula]
                    if any(m in r_set(diagram, i, r, j, s, w) for w in proper):
                        result.fail(f"minimal window not minimal {i},{r},{j},{s} m={m}")
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
        linked = any(f.color == color and
                     abs(exponent - f.exponent) in sl2_set(f.weight, weight)
                     for f in factors)
        joined = sum(abs(exponent - f.exponent) in
                     r_set(diagram, f.color, f.weight, color, weight)
                     for f in factors)
        if not linked and joined == 1:
            factors.append(KRFactor(color, exponent, weight))
    return build_graph(factors, diagram)


def check_duality(trials: int, seed: int) -> SweepResult:
    """Verdicts are invariant under arrow reversal and the diagram automorphism."""
    result = SweepResult("duality")
    rng = random.Random(seed)
    for _ in range(trials):
        g = random_tree_graph(rng)
        result.checked += 1
        primality = is_prime(g).primality
        reality = is_real(g).reality
        tag = classify(g).tag
        for label, h in (("arrow", g.arrow_dual()), ("color", g.color_dual())):
            if is_prime(h).primality != primality or is_real(h).reality != reality:
                result.fail(f"{label}-dual verdict differs for "
                            f"{[v.label() for v in g.vertices]} at rank {g.diagram.n}")
            if classify(h).tag != tag:
                result.fail(f"{label}-dual shape tag differs for "
                            f"{[v.label() for v in g.vertices]} at rank {g.diagram.n}")
    return result


def random_poly(rng: random.Random) -> DrinfeldPoly:
    """Up to 10 roots with colors up to a random rank of at most 5."""
    n = rng.randint(1, 5)
    count = rng.randint(1, 10)
    roots = [(rng.randint(1, n), rng.randint(-6, 6)) for _ in range(count)]
    return DrinfeldPoly.from_roots(roots)


def _merge_once(segments: list[tuple[int, int]], rng: random.Random | None) -> bool:
    """Coalesce one linked pair of q-strings in place; False when none is left.

    Segments are (lo, hi) spans on the exponent lattice with step 2.  Two
    strings of weights r, s and center gap g are linked exactly when g lies
    in the rank-one reducibility set of (r, s); they are then replaced by the
    span union and, if they overlap, the span intersection (so the root
    multiset is preserved).
    """
    order = list(range(len(segments)))
    if rng is not None:
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
            if gap not in sl2_set(wa, wb):
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


def merge_factorize(poly: DrinfeldPoly,
                    rng: random.Random | None = None) -> tuple[KRFactor, ...]:
    """Oracle for q_factorize: merge linked pairs of roots until none is left.

    The optional rng randomizes the merge order; the normal form it reaches
    does not depend on that order.
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
