import itertools
from collections import Counter

import pytest

import qfgraph.decision
import qfgraph.sweeps
from qfgraph.decision import (NOT_PRIME, PRIME, REAL, UNKNOWN, alt_line_cut_simple,
                              cut_general_conditions, decide, dual_pair_simple,
                              is_prime, is_real)
from qfgraph.drinfeld import KRFactor, dual
from qfgraph.dynkin import DynkinA
from qfgraph.fixtures import cesubpt_factors, cosubpt_factors, newprimex_factors
from qfgraph.graph import OTHER, QFactGraph, build_graph, classify
from qfgraph.redsets import minimal_window, r_set, string_parameter
from qfgraph.sweeps import (RANK_ONE, arrow_dual, check_c3aline, check_duality,
                            check_forms_agree, color_dual, extra_condition_uniform,
                            ineq_forms, iter_isolating_arrows, iter_linked_pairs,
                            sign_split)

from altline import AltLineConfig, _alt_configs, cut_simple

A2 = DynkinA(2)


def cfg(diagram, iso, middle, other, source=True):
    (i, r, m), (j, s), (jp, sp, mp) = iso, middle, other
    return AltLineConfig(diagram, i, r, m, j, s, jp, sp, mp, middle_is_source=source)


def line(c):
    'a config\'s (i, r, m, j, s, j\', s\', m\'), which the oracles read'
    return (c.iso_color, c.iso_weight, c.iso_label, c.middle_color, c.middle_weight,
            c.other_color, c.other_weight, c.other_label)


def oracle(c):
    'the string-parameter oracle on a config, p solved here: (p, p\', general, simple)'
    p = string_parameter(c.diagram, c.iso_color, c.iso_weight, c.middle_color,
                         c.middle_weight, c.iso_label)
    return (p, *ineq_forms(c.diagram, line(c), p))


def iter_alt_line_configs(max_rank, max_weight):
    'every config iter_isolating_arrows groups, in its order, built and validated'
    for diagram, (i, r, j, s, m), partners in iter_isolating_arrows(max_rank, max_weight):
        for jp, sp, mp in partners:
            yield AltLineConfig(diagram, i, r, m, j, s, jp, sp, mp)


# -- the cut-simplicity test ------------------------------------------------

def test_cut_booleans_weight_two_end():
    'isolating the weight-2 end of the lower triple is reducible'
    assert cut_simple(cfg(A2, (2, 2, 4), (1, 1), (2, 1, 3))) is False


def test_cut_booleans_weight_one_end():
    'isolating the weight-1 end of the lower triple is simple'
    assert cut_simple(cfg(A2, (2, 1, 3), (1, 1), (2, 2, 4))) is True


def test_cut_booleans_upper_triple():
    assert cut_simple(cfg(A2, (2, 1, 4), (1, 2), (2, 2, 3))) is False
    assert cut_simple(cfg(A2, (2, 2, 3), (1, 2), (2, 1, 4))) is True


def test_cut_family_weight_threshold():
    'the one-parameter family: cut simple at r = 2 only, for r up to 8'
    for r in range(2, 9):
        expected = r == 2
        got = cut_simple(cfg(A2, (1, r, r + 1), (2, 2), (1, 1, 4)))
        assert got is expected, f"r={r}"


def test_ineq_form_agrees_on_named_inputs():
    for args in [((2, 2, 4), (1, 1), (2, 1, 3)),
                 ((2, 1, 3), (1, 1), (2, 2, 4)),
                 ((2, 1, 4), (1, 2), (2, 2, 3)),
                 ((2, 2, 3), (1, 2), (2, 1, 4))]:
        c = cfg(A2, *args)
        assert oracle(c)[3] == cut_simple(c)
    for r in range(2, 9):
        c = cfg(A2, (1, r, r + 1), (2, 2), (1, 1, 4))
        assert oracle(c)[3] == cut_simple(c)


def test_ineq_form_hand_evaluation():
    'shifted parameter 2 - 0 + 0 - 1 = 1 fails the window [0, 1)'
    c = cfg(A2, (2, 2, 4), (1, 1), (2, 1, 3))
    p, pp, _, simple = oracle(c)
    assert simple is False
    assert p == 0 and pp == 0
    assert not (0 <= c.iso_weight - p + pp - 1 < 1)


def test_uniform_extra_condition_on_examples():
    simple = cfg(A2, (2, 1, 3), (1, 1), (2, 2, 4))
    assert extra_condition_uniform(line(simple))
    blocked = cfg(A2, (1, 3, 4), (2, 2), (1, 1, 4))
    assert cut_simple(blocked) is False
    assert not extra_condition_uniform(line(blocked))


def test_validate_rejects_bad_configs():
    'a config is validated when it is built'
    with pytest.raises(ValueError, match="^label 7 is not an admissible arrow gap "
                                         "for the isolated end$"):
        cfg(A2, (2, 2, 7), (1, 1), (2, 1, 3))
    with pytest.raises(ValueError, match="^end vertices are adjacent; the line is "
                                         "not alternating$"):
        cfg(DynkinA(3), (2, 2, 3), (1, 2), (3, 2, 6))
    for args, message in [
            (((2, 2, 4), (1, 1), (2, 1, 5)),
             "label 5 is not an admissible arrow gap for the other end"),
            (((3, 2, 4), (1, 1), (2, 1, 3)), "node 3 out of range for rank 2"),
            (((2, 0, 4), (1, 1), (2, 1, 3)), "weights must be positive, got (0, 1)"),
            (((2, 2, 4), (1, 0), (2, 1, 3)), "weights must be positive, got (2, 0)"),
            (((2, 2, 4), (1, 1), (2, 0, 3)), "weights must be positive, got (1, 0)")]:
        with pytest.raises(ValueError) as caught:
            cfg(A2, *args)
        assert str(caught.value) == message


def test_alt_configs_rejects_a_monotonic_triple():
    'cosubpt\'s 3^1@8 -> 2^1@5 -> 1^2@1, taken around 2^1@5, is no alternating line'
    diagram, factors = cosubpt_factors()
    g = build_graph(factors, diagram)
    ids = {v.label(): k for k, v in enumerate(g.vertices)}
    with pytest.raises(ValueError, match="^vertices do not form an alternating "
                                         "line around the middle$"):
        _alt_configs(g, ids["2^1@5"], ids["3^1@8"], ids["1^2@1"])


def test_alt_configs_reads_the_labels_from_the_exponents():
    'around cosubpt\'s 3^3@6, 1^2@1 heads an arrow but 2^1@5, one below, does not'
    diagram, factors = cosubpt_factors()
    g = build_graph(factors, diagram)
    ids = {v.label(): k for k, v in enumerate(g.vertices)}
    with pytest.raises(ValueError, match="^label 1 is not an admissible arrow gap "
                                         "for the other end$"):
        _alt_configs(g, ids["3^3@6"], ids["1^2@1"], ids["2^1@5"])


def reference_alt_line_configs(max_rank, max_weight):
    """The enumerator iter_isolating_arrows replaced: each linked pair's second
    arm is filtered afresh from every (j', s', m') rather than taken from the
    linked pairs that leave its middle."""
    weights = range(1, max_weight + 1)
    pairs = list(itertools.product(weights, repeat=2))
    link = {(r, s): r_set(RANK_ONE, 1, r, 1, s) for r, s in pairs}
    for n in range(1, max_rank + 1):
        diagram = DynkinA(n)
        nodes = range(1, n + 1)
        sets = {(i, r, j, s): r_set(diagram, i, r, j, s)
                for i, j in itertools.product(nodes, repeat=2) for r, s in pairs}
        for i, r, j, s, m in iter_linked_pairs(diagram, max_weight):
            for jp in nodes:
                for sp in weights:
                    # mp is refused when the middle and the other end would
                    # coalesce, or when the two ends are joined or would.
                    middle_link = link[s, sp] if j == jp else ()
                    ends_linked = sets[i, r, jp, sp]
                    ends_link = link[r, sp] if i == jp else ()
                    for mp in sets[j, s, jp, sp]:
                        if mp in middle_link:
                            continue
                        ends_gap = abs(m - mp)
                        if ends_gap in ends_linked or ends_gap in ends_link:
                            continue
                        yield AltLineConfig(diagram, i, r, m, j, s, jp, sp, mp)


def test_alt_line_configs_match_the_reference_enumerator():
    'same configs in the same order, which the forms-agree failure lists depend on'
    def keyed(configs):
        return [(c.diagram.n, c.params_json()) for c in configs]
    got = keyed(iter_alt_line_configs(5, 3))
    assert len(got) == 12177
    assert got == keyed(reference_alt_line_configs(5, 3))


def test_cut_test_reduces_to_whole_window_configs():
    """Each config is not simple on both forms when j' lies outside its window
    J; otherwise its translate to DynkinA(|J|) either fails to build, and then
    the config is not simple and fails the general conditions, or builds with
    window [1, |J|] and gets the same answers from both forms."""
    cases = Counter()
    for c in iter_alt_line_configs(6, 4):
        lo, hi = c.arrow.window.lo, c.arrow.window.hi
        simple, forms = cut_simple(c), oracle(c)[2:]
        if not lo <= c.other_color <= hi:
            cases["outside"] += 1
            assert not simple and not forms[1], c.params_json()
            continue
        size = hi - lo + 1
        try:
            t = AltLineConfig(DynkinA(size), c.iso_color - lo + 1, c.iso_weight,
                              c.iso_label, c.middle_color - lo + 1, c.middle_weight,
                              c.other_color - lo + 1, c.other_weight, c.other_label,
                              c.middle_is_source)
        except ValueError:
            cases["unbuilt"] += 1
            assert not simple and not forms[0], c.params_json()
            continue
        cases["whole"] += 1
        assert (t.arrow.window.lo, t.arrow.window.hi) == (1, size), c.params_json()
        assert cut_simple(t) == simple, c.params_json()
        assert oracle(t)[2:] == forms, c.params_json()
    assert cases == {"outside": 39570, "unbuilt": 11922, "whole": 38416}


def test_forms_agree_validates_and_windows_each_config_once(monkeypatch):
    """A window and a per-arrow part per isolating arrow, and a per-partner
    test per config."""
    calls = Counter()

    def count(owner, name):
        function = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(qfgraph.decision, "minimal_window")
    count(qfgraph.sweeps, "isolating_arrow")
    count(qfgraph.sweeps, "alt_line_cut_simple")
    result = check_forms_agree(3, 2)
    assert result.passed and result.checked == 206
    assert calls == {"minimal_window": 44, "isolating_arrow": 44,
                     "alt_line_cut_simple": 206}


def test_forms_agree_evaluates_general_conditions_once(monkeypatch):
    'the engine evaluates the general conditions once per config, in the cut test'
    calls = Counter()
    general = cut_general_conditions

    def counted(*args):
        calls["cut_general_conditions"] += 1
        return general(*args)

    for module in (qfgraph.decision, qfgraph.sweeps):
        if getattr(module, "cut_general_conditions", None) is general:
            monkeypatch.setattr(module, "cut_general_conditions", counted)
    result = check_forms_agree(3, 2)
    assert result.passed and result.checked > 0
    assert calls == {"cut_general_conditions": result.checked}


def test_forms_agree_solves_each_config_once(monkeypatch):
    'the oracle solves p once per isolating arrow and p\' once per config'
    calls = Counter()
    solve = string_parameter

    def counted(*args):
        calls["string_parameter"] += 1
        return solve(*args)

    monkeypatch.setattr(qfgraph.sweeps, "string_parameter", counted)
    result = check_forms_agree(3, 2)
    assert result.passed and result.checked == 206
    assert calls == {"string_parameter": 44 + 206}


def _on(iso, middle, other):
    'where a forms-agree counterexample on a rank-2 config is reported'
    c = cfg(A2, iso, middle, other)
    return f"on {c.params_json()} at rank 2"


def test_forms_agree_catches_a_flipped_cut_test(monkeypatch):
    'the engine answering wrong on the lower triple fails the sweep once'
    def flipped(arrow, jp, sp, mp):
        simple = alt_line_cut_simple(arrow, jp, sp, mp)
        dg, i, r, j, s, m = arrow[:6]
        if dg.n == 2 and (i, r, m, j, s, jp, sp, mp) == (2, 2, 4, 1, 1, 2, 1, 3):
            return not simple
        return simple

    monkeypatch.setattr(qfgraph.sweeps, "alt_line_cut_simple", flipped)
    result = check_forms_agree(3, 2)
    assert result.checked == 206
    assert result.failures == [
        "forms disagree (True vs False) on {'isolated': {'color': 2, 'weight': 2, "
        "'label': 4}, 'middle': {'color': 1, 'weight': 1}, 'other': {'color': 2, "
        "'weight': 1, 'label': 3}, 'middle_is_source': True} at rank 2",
    ]


def test_c3aline_catches_a_cut_test_answering_not_simple(monkeypatch):
    'one symmetric line the engine calls not simple fails the sweep with its text'
    def refused_once(arrow, jp, sp, mp):
        simple = alt_line_cut_simple(arrow, jp, sp, mp)
        dg, i, r, j, s, m = arrow[:6]
        return simple and (dg.n, i, r, j, s, m) != (2, 1, 2, 2, 2, 3)

    monkeypatch.setattr(qfgraph.sweeps, "alt_line_cut_simple", refused_once)
    assert check_c3aline(2, 2).lines() == [
        "FAIL: c3aline (10 cases checked)",
        "  counterexample: cut not simple for i=1 r=2 j=2 s=2 m=3 at rank 2",
    ]


def test_forms_agree_catches_a_negated_uniform_rewriting(monkeypatch):
    'the third rewriting is compared on every config the general conditions admit'
    uniform = extra_condition_uniform
    monkeypatch.setattr(qfgraph.sweeps, "extra_condition_uniform",
                        lambda c: not uniform(c))
    result = check_forms_agree(3, 2)
    assert result.failures == [
        f"uniform weight-drop rewriting disagrees {_on(*args)}"
        for args in [((1, 1, 3), (2, 1), (1, 1, 3)), ((1, 1, 3), (2, 1), (1, 2, 4)),
                     ((1, 1, 4), (2, 2), (1, 1, 4)), ((1, 1, 4), (2, 2), (1, 2, 5)),
                     ((1, 2, 4), (2, 1), (1, 2, 4))]]


def test_forms_agree_catches_a_zero_sign_split(monkeypatch):
    'a sign-split pair of zeros breaks the p_plus and p_minus bounds'
    monkeypatch.setattr(qfgraph.sweeps, "sign_split", lambda c, p, pp: (0, 0))
    result = check_forms_agree(3, 2)
    assert result.failures[0] == (
        "p_plus bound fails on {'isolated': {'color': 1, 'weight': 1, 'label': 3}, "
        "'middle': {'color': 2, 'weight': 1}, 'other': {'color': 1, 'weight': 1, "
        "'label': 3}, 'middle_is_source': True} at rank 2")
    assert result.failures == [
        f"p_plus bound fails {_on((1, 1, 3), (2, 1), (1, 1, 3))}",
        f"p_minus bound fails {_on((1, 1, 3), (2, 1), (1, 1, 3))}",
        f"p_minus bound fails {_on((1, 1, 3), (2, 1), (1, 2, 4))}",
        f"p_plus bound fails {_on((1, 1, 4), (2, 2), (1, 1, 4))}",
        f"p_minus bound fails {_on((1, 1, 4), (2, 2), (1, 1, 4))}",
    ]


def test_forms_agree_catches_a_p_plus_over_its_ceiling(monkeypatch):
    'p_plus past s\' fails where p <= 0 and m >= m\', and passes the p_plus bound'
    def raised(c, p, pp):
        p_plus, p_minus = sign_split(c, p, pp)
        return p_plus + 100, p_minus

    monkeypatch.setattr(qfgraph.sweeps, "sign_split", raised)
    assert check_forms_agree(2, 1).failures == [
        f"p_plus ceiling fails {_on((1, 1, 3), (2, 1), (1, 1, 3))}",
        f"p_plus ceiling fails {_on((2, 1, 3), (1, 1), (2, 1, 3))}",
    ]


def test_forms_agree_refuses_arrow_labels_outside_the_sets(monkeypatch):
    'a string parameter of None for an arrow label is an error, not a verdict'
    monkeypatch.setattr(qfgraph.sweeps, "string_parameter", lambda *args: None)
    with pytest.raises(ValueError) as exc:
        check_forms_agree(2, 1)
    assert str(exc.value) == "arrow labels are outside the unrestricted reducibility sets"


def test_general_conditions_agree_across_forms():
    'membership form == string-parameter form of the general conditions'
    held = 0
    for c in iter_alt_line_configs(6, 4):
        _, _, general, simple = oracle(c)
        assert cut_general_conditions(c.arrow, c.other_color, c.other_weight,
                                      c.other_label) == general, c.params_json()
        assert general or not simple
        held += general
    assert held == 22332


def _cut_window(c):
    return minimal_window(c.diagram, c.iso_color, c.iso_weight,
                          c.middle_color, c.middle_weight, c.iso_label)


def _ends(window):
    return window.lo, window.hi


def test_case_parameters_examples():
    c = cfg(A2, (2, 2, 4), (1, 1), (2, 1, 3))
    p, pp = oracle(c)[:2]
    sign_split(line(c), p, pp)
    assert (p, pp) == (0, 0)
    assert _ends(_cut_window(c)) == (1, 2) and _cut_window(c).dual_coxeter() == 3
    assert _ends(c.arrow.window) == _ends(_cut_window(c)) and "window" not in repr(c)

    c = cfg(A2, (2, 1, 3), (1, 1), (2, 2, 4))
    p, pp = oracle(c)[:2]
    sign_split(line(c), p, pp)
    assert (p, pp) == (0, 0)
    assert _ends(_cut_window(c)) == (1, 2) and _cut_window(c).dual_coxeter() == 3

    for r in range(2, 9):
        c = cfg(A2, (1, r, r + 1), (2, 2), (1, 1, 4))
        p, pp = oracle(c)[:2]
        sign_split(line(c), p, pp)
        assert p == 1
        assert _ends(_cut_window(c)) == (1, 2) and _cut_window(c).dual_coxeter() == 3


def test_case_parameters_signed_identities():
    c = cfg(DynkinA(3), (3, 3, 5), (1, 2), (2, 1, 4))
    p, pp = oracle(c)[:2]
    p_plus, p_minus = sign_split(line(c), p, pp)
    base = c.iso_weight + c.other_weight + 1
    assert c.iso_label - c.other_label == base - 2 * p_plus
    assert c.other_label - c.iso_label == base - 2 * p_minus
    with pytest.raises(AssertionError, match="^sign-split identities violated$"):
        sign_split(line(c), p + 1, pp)


# -- dual pairs ---------------------------------------------------------------

def test_dual_pair_simple_examples():
    assert dual_pair_simple(dual(KRFactor(2, 4, 2), A2), KRFactor(1, 0, 1), A2) is True
    assert dual_pair_simple(dual(KRFactor(1, 7, 2), A2), KRFactor(2, 3, 1), A2) is True
    assert dual_pair_simple(dual(KRFactor(1, 0, 1), A2), KRFactor(1, 0, 1), A2) is False


def test_duality_catches_a_negated_dual_pair_test(monkeypatch):
    'the string-parameter check catches a wrong dual-pair test that invariance would not'
    monkeypatch.setattr(qfgraph.sweeps, "dual_pair_simple",
                        lambda w1, w2, diagram: not dual_pair_simple(w1, w2, diagram))
    result = check_duality(1000, 2024)
    assert result.checked == 1000
    assert not result.passed
    assert all(f.startswith("dual-pair test disagrees with the string parameter for ")
               for f in result.failures)


def test_duality_catches_dual_transforms_that_do_nothing(monkeypatch):
    'identity transforms keep every verdict, but not the arrows a dual must have'
    monkeypatch.setattr(qfgraph.sweeps, "arrow_dual", lambda g: g)
    monkeypatch.setattr(qfgraph.sweeps, "color_dual", lambda g: g)
    result = check_duality(1000, 2024)
    assert result.checked == 1000
    assert not result.passed
    assert all(f.startswith(("arrow-dual arrows differ for ", "color-dual arrows differ for "))
               for f in result.failures)


# The first three trees check_duality draws at seed 2024, as its failures name them.
DUALITY_TREES = ["['1^2@14', '2^2@-1', '2^3@0', '2^3@8', '4^2@-7'] at rank 4",
                 "['1^1@-4', '3^3@-10', '3^2@-9', '3^1@0'] at rank 3",
                 "['3^1@0', '4^3@5'] at rank 4"]


def test_duality_catches_an_arrow_dual_of_another_reality(monkeypatch):
    'each trial asks is_real of the tree, its arrow dual and its color dual, in turn'
    calls = itertools.count()
    monkeypatch.setattr(qfgraph.sweeps, "is_real",
                        lambda g: is_real(g)._replace(reality=UNKNOWN)
                        if next(calls) % 3 == 1 else is_real(g))
    assert check_duality(3, 2024).failures == [
        f"arrow-dual verdict differs for {tree}" for tree in DUALITY_TREES]


def test_duality_catches_a_color_dual_of_another_shape(monkeypatch):
    'each trial asks classify of the tree, its arrow dual and its color dual, in turn'
    calls = itertools.count()
    monkeypatch.setattr(qfgraph.sweeps, "classify",
                        lambda g: classify(g)._replace(tag=OTHER)
                        if next(calls) % 3 == 2 else classify(g))
    assert check_duality(3, 2024).failures == [
        f"color-dual shape tag differs for {tree}" for tree in DUALITY_TREES]


# -- the symmetric always-simple configuration -------------------------------

def test_c3aline_examples():
    assert cut_simple(cfg(A2, (1, 1, 3), (2, 1), (1, 1, 3))) is True
    assert cut_simple(cfg(A2, (2, 2, 4), (1, 1), (2, 2, 4))) is True
    assert cut_simple(cfg(DynkinA(3), (1, 3, 7), (3, 2), (1, 3, 7))) is True
    with pytest.raises(ValueError):
        cfg(A2, (1, 1, 4), (2, 1), (1, 1, 4))


# -- verdicts -----------------------------------------------------------------

def build(dg, factors):
    return build_graph(factors, dg)


def test_is_prime_newprimex_family():
    dg, factors = newprimex_factors(1)
    verdict = is_prime(build(dg, factors))
    assert verdict.primality == PRIME
    assert verdict.certificate[-1].rule == "two_vertex"
    for r in range(2, 9):
        dg, factors = newprimex_factors(r)
        verdict = is_prime(build(dg, factors))
        if r == 2:
            assert verdict.primality == NOT_PRIME
            assert verdict.certificate[-1].rule == "alt_line_cut"
        else:
            assert verdict.primality == PRIME
            assert verdict.certificate[-1].rule == "alt_line_prime"


def test_is_prime_small_graphs():
    dg = DynkinA(3)
    verdict = is_prime(build(dg, [KRFactor(1, 0, 1)]))
    assert verdict.primality == PRIME
    assert verdict.certificate[-1].rule == "singleton"
    verdict = is_prime(build(dg, [KRFactor(1, 3, 1), KRFactor(2, 0, 1)]))
    assert verdict.primality == PRIME
    assert verdict.certificate[-1].rule == "two_vertex"
    split = build(dg, [KRFactor(1, 0, 1), KRFactor(1, 40, 1)])
    verdict = is_prime(split)
    assert verdict.primality == NOT_PRIME
    assert verdict.certificate[0].rule == "disconnected"


def test_is_prime_totally_ordered():
    dg = DynkinA(3)
    mono = build(dg, [KRFactor(1, 9, 1), KRFactor(2, 6, 1), KRFactor(3, 3, 1)])
    verdict = is_prime(mono)
    assert verdict.primality == PRIME
    assert verdict.certificate[0].rule == "totally_ordered"
    triangle = build(dg, [KRFactor(1, 7, 2), KRFactor(2, 4, 2), KRFactor(3, 1, 2)])
    assert is_prime(triangle).primality == PRIME


def test_is_prime_four_vertex_tree_stays_unknown():
    'regression: the non-prime 4-vertex tree must never come back prime'
    dg, factors = cosubpt_factors()
    verdict = is_prime(build(dg, factors))
    assert verdict.primality == UNKNOWN
    assert verdict.primality != PRIME


def test_is_prime_four_cycle_unknown():
    dg, factors = cesubpt_factors()
    assert is_prime(build(dg, factors)).primality == UNKNOWN


def test_is_prime_subgraph_rule():
    'a tensor-square-like triple inside a 4-vertex tree forces not prime'
    dg = DynkinA(2)
    g = build(dg, [KRFactor(1, 0, 3), KRFactor(2, -5, 1), KRFactor(2, -5, 1),
                   KRFactor(2, 5, 3)])
    assert len(g) == 4 and g.is_tree()
    verdict = is_prime(g)
    assert verdict.primality == NOT_PRIME
    assert verdict.certificate[-1].rule == "subgraph_not_prime"


def test_is_prime_dual_pair_rule():
    dg = DynkinA(4)
    g = build(dg, [KRFactor(1, -4, 1), KRFactor(2, 0, 2), KRFactor(3, 3, 2),
                   KRFactor(4, -5, 1)])
    assert len(g) == 4 and g.is_tree() and not g.is_totally_ordered()
    verdict = is_prime(g)
    assert verdict.primality == PRIME
    assert verdict.certificate[-1].rule == "dual_pairs_simple"


def test_tree_cut_witness_search():
    'the triple scan finds the simple cut on an extended alternating line'
    dg = DynkinA(2)
    g = build(dg, [KRFactor(1, 3, 2), KRFactor(2, 0, 2), KRFactor(1, 4, 1),
                   KRFactor(1, -4, 1)])
    assert g.is_tree() and len(g) == 4
    verdict = is_prime(g)
    assert verdict.primality == NOT_PRIME
    assert [step.rule for step in verdict.certificate] == ["subgraph_not_prime"]
    assert verdict.certificate[0].params == {
        "subgraph": ["1^2@3", "1^1@4", "2^2@0"]}


def test_verdict_duality_invariance_on_fixtures():
    for dg, factors in (cosubpt_factors(), cesubpt_factors(),
                        newprimex_factors(2), newprimex_factors(3)):
        g = build(dg, factors)
        want = (is_prime(g).primality, is_real(g).reality)
        for h in (arrow_dual(g), color_dual(g)):
            assert (is_prime(h).primality, is_real(h).reality) == want


def test_is_real():
    dg, factors = cosubpt_factors()
    assert is_real(build(dg, factors)).reality == REAL
    assert is_real(build(DynkinA(2), [KRFactor(1, 0, 1)])).reality == REAL
    dg, factors = cesubpt_factors()
    assert is_real(build(dg, factors)).reality == UNKNOWN
    forest = build(DynkinA(2), [KRFactor(1, 0, 1), KRFactor(1, 40, 1)])
    assert is_real(forest).reality == UNKNOWN


def test_empty_graph_is_refused():
    empty = QFactGraph(A2, (), (), False)
    with pytest.raises(ValueError, match="primality of an empty graph"):
        is_prime(empty)
    with pytest.raises(ValueError, match="reality of an empty graph"):
        is_real(empty)


def test_decide_merges_certificates():
    dg, factors = cosubpt_factors()
    verdict = decide(build(dg, factors))
    assert verdict.primality == UNKNOWN and verdict.reality == REAL
    rules = [step.rule for step in verdict.certificate]
    assert "tree_real" in rules and "inconclusive" in rules
    payload = verdict.to_json(trace=True)
    assert set(payload) == {"primality", "reality", "certificate"}
    assert all(set(step) == {"rule", "cites", "params"}
               for step in payload["certificate"])
