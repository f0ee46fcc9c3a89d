"""The primality engine against the code paths it replaces.

The engine picks a rule from the shape tag of one classify pass and decides
a tree with one scan of its alternating triples.  The oracle below finds the
shape with the chain of graph queries the engine used to make (components,
vertex count, a reachability closure for the total order, classify, an
edge-set tree test) and decides a tree by recursion: into every proper connected subgraph, smallest first,
memoized up to exponent translation, then the dual-pair rule, then a search
of tree-edge cuts for a neighbor witness.  Both must give byte-identical
traced verdicts, and the witness search must never be the rule that decides.
The closure also checks the engine's own total-order test and line orders.
"""

import itertools
import json
import random
import time
from collections import Counter

import qfgraph.decision
import qfgraph.graph
from qfgraph.decision import (NOT_PRIME, PRIME, REAL, UNKNOWN, CertStep,
                              Verdict, _first_simple_cut, _over_budget,
                              _tree_dual_pairs_simple, decide, dual_pair_simple,
                              is_prime, is_real)
import qfgraph.drinfeld
from qfgraph.drinfeld import KRFactor, dual
from qfgraph.dynkin import DynkinA
from qfgraph.fixtures import cesubpt_factors, cosubpt_factors, newprimex_factors
from qfgraph.graph import (ALTERNATING_LINE3, DISCONNECTED, MONOTONIC_LINE3,
                           OTHER, TREE, TRIANGLE, TWO_LINE, QFactGraph,
                           build_graph, classify)
from qfgraph.redsets import r_set
from qfgraph.sweeps import iter_isolating_arrows, random_tree_graph

from altline import _alt_configs, cut_simple

TREE_RULES = ("subgraph_not_prime", "dual_pairs_simple", "inconclusive")


def _canonical_key(g) -> tuple:
    base = min(v.exponent for v in g.vertices)
    verts = tuple((v.color, v.exponent - base, v.weight) for v in g.vertices)
    arrows = tuple(sorted((a.tail, a.head, a.epsilon) for a in g.arrows))
    return (g.diagram.n, verts, arrows)


def _verdict(primality: str, rule: str, cites: str, params: dict) -> Verdict:
    return Verdict(primality, certificate=[CertStep(rule, cites, params)])


def _reach(g) -> list[set]:
    """Vertices reachable from each vertex along arrows (transitive closure)."""
    n = len(g.vertices)
    reach = [set() for _ in range(n)]
    for v in range(n):
        stack = [v]
        while stack:
            u = stack.pop()
            for w in g.out[u]:
                if w not in reach[v]:
                    reach[v].add(w)
                    stack.append(w)
    return reach


def _closure_totally_ordered(g) -> bool:
    reach = _reach(g)
    n = len(g.vertices)
    return all(v in reach[u] or u in reach[v]
               for u in range(n) for v in range(u + 1, n))


def _old_is_tree(g) -> bool:
    edges = {frozenset((a.tail, a.head)) for a in g.arrows}
    return len(g.components()) == 1 and len(edges) == len(g) - 1


def _old_shape_rules(g):
    """The rules the engine tried before the tree rules; None for a tree."""
    comps = g.components()
    if len(comps) > 1:
        return _verdict(NOT_PRIME, "disconnected", "a prime module has a "
                        "connected q-factorization graph",
                        {"components": [[g.vertices[v].label() for v in c]
                                        for c in comps]})
    if len(g) == 1:
        return _verdict(PRIME, "singleton", "a single Kirillov-Reshetikhin "
                        "factor admits no nontrivial dissociate splitting",
                        {"vertex": g.vertices[0].label()})
    if len(g) == 2:
        return _verdict(PRIME, "two_vertex", "derived rule: any splitting "
                        "separates the two linked factors, whose ordered "
                        "tensor product is reducible by the arrow",
                        {"epsilon": g.arrows[0].epsilon})
    if _closure_totally_ordered(g):
        return _verdict(PRIME, "totally_ordered", "totally ordered "
                        "q-factorization graphs are prime in type A", {})
    shape = classify(g)
    if shape.tag == ALTERNATING_LINE3:
        e1, mid, e2 = shape.line_order
        for iso, other in ((e1, e2), (e2, e1)):
            cfg = _alt_configs(g, mid, iso, other)
            if cut_simple(cfg):
                return _verdict(NOT_PRIME, "alt_line_cut", "three-vertex "
                                "alternating line: the cut isolating one end "
                                "is a simple tensor product",
                                {"isolated": g.vertices[iso].label(),
                                 "config": cfg.params_json()})
        return _verdict(PRIME, "alt_line_prime", "three-vertex alternating "
                        "line: neither endpoint cut is a simple tensor "
                        "product, and this criterion is exact",
                        {"ends": [g.vertices[e1].label(), g.vertices[e2].label()]})
    if not _old_is_tree(g):
        return _verdict(UNKNOWN, "inconclusive",
                        "no implemented rule decides graphs with cycles", {})
    return None


def oracle_is_prime(g, memo: dict, witness_fired: list) -> Verdict:
    key = _canonical_key(g)
    if key not in memo:
        verdict = _old_shape_rules(g)
        if verdict is None:
            verdict = _oracle_tree_rules(g, memo, witness_fired)
        memo[key] = verdict
    return memo[key]


def oracle_is_real(g) -> Verdict:
    if _old_is_tree(g):
        return Verdict(reality=REAL, certificate=[CertStep(
            "tree_real", "a q-factorization graph afforded by a tree is real "
            "in type A", {})])
    return Verdict(reality=UNKNOWN, certificate=[CertStep(
        "inconclusive", "no reality rule applies to graphs that are not "
        "trees", {})])


def all_pairs_dual_simple(g) -> bool:
    """The dual-pair rule over every non-adjacent pair, both orders."""
    n, dg, vs = len(g), g.diagram, g.vertices
    return all(dual_pair_simple(dual(vs[u], dg), vs[v], dg)
               and dual_pair_simple(dual(vs[v], dg), vs[u], dg)
               for u in range(n) for v in range(u + 1, n) if not g.adjacent(u, v))


def _oracle_tree_rules(g, memo: dict, witness_fired: list) -> Verdict:
    sub = _tree_subgraph_not_prime(g, memo, witness_fired)
    if sub is not None:
        return Verdict(NOT_PRIME, certificate=[CertStep(
            "subgraph_not_prime", "every proper connected subgraph of a prime "
            "tree is prime; a non-prime subgraph refutes primality",
            {"subgraph": [v.label() for v in sub.vertices]})])
    if all_pairs_dual_simple(g):
        return Verdict(PRIME, certificate=[CertStep(
            "dual_pairs_simple", "a tree is prime when the dual-pair tensor "
            "product of every non-adjacent vertex pair is simple (both orders "
            "checked)", {})])
    witness = _tree_cut_witness(g)
    if witness is not None:
        witness_fired.append([v.label() for v in g.vertices])
        edge, wit, iso = witness
        return Verdict(NOT_PRIME, certificate=[CertStep(
            "cut_witness", "a tree edge cut splits the module once a neighbor "
            "witness makes the induced three-factor tensor product simple",
            {"cut": [g.vertices[v].label() for v in edge],
             "witness": g.vertices[wit].label(),
             "isolated": g.vertices[iso].label()})])
    return Verdict(UNKNOWN, certificate=[
        CertStep("inconclusive", "no implemented rule applies", {})])


def connected_subgraphs(g, size: int) -> list:
    """All weakly connected induced subgraphs of g on `size` vertices."""
    out = []
    for ids in itertools.combinations(range(len(g)), size):
        chosen = set(ids)
        stack, seen = [ids[0]], {ids[0]}
        while stack:
            v = stack.pop()
            for w in g.out[v] + g.into[v]:
                if w in chosen and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(ids):
            out.append(g.induced(ids))
    return out


def _tree_subgraph_not_prime(g, memo: dict, witness_fired: list):
    for size in range(2, len(g)):
        for sub in connected_subgraphs(g, size):
            if oracle_is_prime(sub, memo, witness_fired).primality == NOT_PRIME:
                return sub
    return None


def _tree_cut_witness(g):
    for a in g.arrows:
        u, v = a.tail, a.head
        for w in g.out[u]:
            if w == v or g.adjacent(w, v):
                continue
            if cut_simple(_alt_configs(g, u, v, w)):
                return ((u, v), w, v)
        for w in g.into[v]:
            if w == u or g.adjacent(w, u):
                continue
            if cut_simple(_alt_configs(g, v, u, w)):
                return ((u, v), w, u)
    return None


def _traced(verdict: Verdict) -> str:
    return json.dumps(verdict.to_json(trace=True), sort_keys=True)


def _agree(g, witness_fired: list) -> str:
    p = oracle_is_prime(g, {}, witness_fired)
    r = oracle_is_real(g)
    want = Verdict(p.primality, r.reality, p.certificate + r.certificate)
    got = decide(g)
    assert _traced(got) == _traced(want), [v.label() for v in g.vertices]
    return got.certificate[0].rule


def test_scan_matches_recursion_on_random_trees():
    rng = random.Random(20240512)
    witness_fired: list = []
    rules = set()
    for _ in range(1000):
        g = random_tree_graph(rng, max_rank=6, max_vertices=8, max_weight=4)
        rules.add(_agree(g, witness_fired))
    assert witness_fired == []
    assert set(TREE_RULES) <= rules


def test_scan_matches_recursion_on_fixtures():
    witness_fired: list = []
    families = [newprimex_factors(r) for r in range(1, 9)]
    families += [cosubpt_factors(), cesubpt_factors()]
    for dg, factors in families:
        _agree(build_graph(factors, dg), witness_fired)
    assert witness_fired == []


def test_three_vertex_rule_matches_the_config_branch():
    """Every config iter_isolating_arrows(4, 3) groups, as a graph in both
    orientations (the middle at 0, the ends at -m and -m' or at m and m'):
    the scan decides each line as the branch that built a validated config
    for each end in line order did, byte for byte."""
    rules = Counter()
    for diagram, (i, r, j, s, m), partners in iter_isolating_arrows(4, 3):
        for jp, sp, mp in partners:
            for sign in (-1, 1):
                g = build_graph([KRFactor(j, 0, s), KRFactor(i, sign * m, r),
                                 KRFactor(jp, sign * mp, sp)], diagram)
                got = is_prime(g)
                assert _traced(got) == _traced(_old_shape_rules(g)), \
                    [v.label() for v in g.vertices]
                rules[got.certificate[0].rule] += 1
    assert rules == {"alt_line_cut": 4694, "alt_line_prime": 3424}


def test_neighbor_pair_triples_are_the_connected_triples():
    'in a tree the connected 3-subsets are a vertex with two of its neighbors'
    rng = random.Random(20261019)
    graphs = [build_graph(factors, dg) for dg, factors in
              [newprimex_factors(r) for r in range(1, 9)] + [cosubpt_factors()]]
    graphs += [random_tree_graph(rng, max_rank=6, max_vertices=8, max_weight=4)
               for _ in range(1000)]
    counts = Counter()
    for g in graphs:
        assert g.is_tree()
        want = sorted(sub.vertices for sub in connected_subgraphs(g, 3))
        got = sorted(g.induced((v, a, b)).vertices for v in range(len(g))
                     for a, b in itertools.combinations(
                         sorted(g.out[v] + g.into[v]), 2))
        assert got == want, [v.label() for v in g.vertices]
        counts[len(want)] += 1
    assert counts[0] > 0 and max(counts) >= 6


def _random_factor_list(rng: random.Random):
    """Up to six factors, most linked to an earlier one, some placed anywhere."""
    n = rng.randint(1, 4)
    diagram = DynkinA(n)
    factors = [KRFactor(rng.randint(1, n), 0, rng.randint(1, 3))]
    for _ in range(rng.randint(0, 5)):
        color, weight = rng.randint(1, n), rng.randint(1, 3)
        if rng.random() < 0.2:
            exponent = rng.randint(-12, 12)
        else:
            base = rng.choice(factors)
            gaps = r_set(diagram, color, weight, base.color, base.weight)
            exponent = base.exponent + rng.choice((-1, 1)) * rng.choice(gaps)
        factors.append(KRFactor(color, exponent, weight))
    return diagram, factors


def test_dispatch_matches_old_chain_on_random_factor_lists():
    rng = random.Random(20261018)
    witness_fired: list = []
    tags = Counter()
    for _ in range(2000):
        diagram, factors = _random_factor_list(rng)
        g = build_graph(factors, diagram)
        tags[classify(g).tag] += 1
        _agree(g, witness_fired)
    assert witness_fired == []
    for tag in (DISCONNECTED, TRIANGLE, ALTERNATING_LINE3, OTHER, TREE):
        assert tags[tag] > 0, tag


def test_total_order_and_line_order_match_closure():
    'chain test on the exponent order == reachability closure, ties and cycles included'
    rng = random.Random(5)
    seen = Counter()
    for _ in range(20000):
        n = rng.randint(1, 5)
        diagram = DynkinA(n)
        factors = [KRFactor(rng.randint(1, n), rng.randint(-6, 6), rng.randint(1, 3))
                   for _ in range(rng.randint(1, 7))]
        g = build_graph(factors, diagram)
        exponents = [v.exponent for v in g.vertices]
        reach = _reach(g)
        ordered = _closure_totally_ordered(g)
        assert g.is_totally_ordered() == ordered, [v.label() for v in g.vertices]
        shape = classify(g)
        if ordered:
            by_reach = sorted(range(len(g)), key=lambda v: -len(reach[v]))
            assert list(g.exponent_order()) == by_reach
        if shape.tag in (TWO_LINE, MONOTONIC_LINE3):
            assert ordered and shape.line_order == g.exponent_order()
        elif shape.tag == ALTERNATING_LINE3:
            e1, mid, e2 = shape.line_order
            assert e1 < e2 and g.adjacent(mid, e1) and g.adjacent(mid, e2)
            assert not ordered and not g.adjacent(e1, e2)
        else:
            assert shape.line_order is None
        seen[shape.tag] += 1
        seen["ordered" if ordered else "unordered"] += 1
        seen["tie"] += len(set(exponents)) < len(exponents)
    for key in (TWO_LINE, MONOTONIC_LINE3, ALTERNATING_LINE3, OTHER,
                "ordered", "unordered", "tie"):
        assert seen[key] > 0, key


def test_decide_walks_a_tree_once(monkeypatch):
    'a graph walks its components once, when built; classify and is_tree share it'
    rng = random.Random(7)
    trees = [g for g in (random_tree_graph(rng, max_rank=6, max_vertices=8,
                                           max_weight=4) for _ in range(300))
             if len(g) >= 4]
    diagram, factors = cosubpt_factors()
    trees.append(build_graph(factors, diagram))
    calls = Counter()
    for name in ("components", "is_totally_ordered", "is_tree"):
        method = getattr(QFactGraph, name)

        def counted(self, _method=method, _name=name):
            calls[_name] += 1
            return _method(self)

        monkeypatch.setattr(QFactGraph, name, counted)
    assert len(trees) > 100
    # classify tests for a tree once the graph is not totally ordered.
    tagged = [int(classify(g).tag == TREE) for g in trees]
    assert set(tagged) == {0, 1}
    for g, k in zip(trees, tagged):
        calls.clear()
        keys = [a.tail * len(g) + a.head for a in g.arrows]
        g = QFactGraph(g.diagram, g.vertices, keys, g.was_refactorized)
        assert calls == {"components": 1}
        is_prime(g)
        # A Counter treats a missing name as zero calls.
        assert calls == Counter(components=1, is_totally_ordered=1, is_tree=k)
        is_real(g)
        assert calls == Counter(components=1, is_totally_ordered=1, is_tree=k + 1)
        calls.clear()
        decide(g)
        assert calls == Counter(is_totally_ordered=1, is_tree=k + 1)


def test_windowed_dual_pairs_match_all_pairs_oracle():
    'random trees and factor lists: both answers, pruned windows, weights 1 to 10^9'
    rng = random.Random(20261021)
    graphs = [random_tree_graph(rng, max_rank=6, max_vertices=10, max_weight=4)
              for _ in range(1500)]
    for k in range(1500):
        n = rng.randint(1, 5)
        diagram = DynkinA(n)
        spread = rng.choice((4, 15, 60, 120))
        factors = [KRFactor(rng.randint(1, n), rng.randint(-spread, spread),
                            rng.randint(1, 3) if rng.random() < 0.6 else rng.randint(4, 15))
                   for _ in range(rng.randint(1, 9))]
        if k % 5 == 1:  # a weight-10^9 factor and a partner its dual may reach
            huge = factors[0] = KRFactor(factors[0].color, factors[0].exponent, 10**9)
            color, weight = rng.randint(1, n), rng.randint(1, 4)
            gap = rng.choice(r_set(diagram, n + 1 - huge.color, huge.weight,
                                   color, weight)) + rng.choice((0, 0, 1))
            factors.append(KRFactor(color, huge.exponent - (n + 1)
                                    + rng.choice((-1, 1)) * gap, weight))
        graphs.append(build_graph(factors, diagram))
    seen = Counter()
    for g in graphs:
        want = all_pairs_dual_simple(g)
        assert _tree_dual_pairs_simple(g) == want, [v.label() for v in g.vertices]
        exponents = [v.exponent for v in g.vertices]
        wide = max(exponents) - min(exponents) > \
            2 * max(v.weight for v in g.vertices) + 2 * g.diagram.n + 1
        seen[g.is_tree(), want] += 1
        seen["pruned", want] += wide
        seen["both parity classes"] += len(
            {(v.exponent + v.weight + v.color) % 2 for v in g.vertices}) == 2
        weights = [v.weight for v in g.vertices]
        seen["bucket 1-3"] += min(weights) <= 3
        seen["bucket 4-15"] += any(4 <= w <= 15 for w in weights)
        seen["bucket 10^9", want] += max(weights) >= 10**9
    for key in ((True, True), (True, False), (False, True), (False, False),
                ("pruned", True), ("pruned", False), "both parity classes",
                "bucket 1-3", "bucket 4-15", ("bucket 10^9", True),
                ("bucket 10^9", False)):
        assert seen[key] > 50, (key, seen)


def test_spread_out_dual_pairs_need_no_test(monkeypatch, count_window_ids):
    '2000 vertices 20 apart, and a weight-10^9 factor: at most V tests, not V (V - 1)'
    size = 2000
    factors = [KRFactor(k % 4 + 1, 20 * k, k % 3 + 1) for k in range(size)]
    g = build_graph(factors, DynkinA(4))
    calls = Counter()

    def counted(*args):
        calls["dual_pair_simple"] += 1
        return dual_pair_simple(*args)

    monkeypatch.setattr(qfgraph.decision, "dual_pair_simple", counted)
    assert len(g) == size and _tree_dual_pairs_simple(g)
    assert calls["dual_pair_simple"] <= size
    heavy = build_graph(factors + [KRFactor(1, -5 * 10**9, 10**9)], DynkinA(4))
    examined = count_window_ids(qfgraph.decision)
    assert len(heavy) == size + 1 and _tree_dual_pairs_simple(heavy)
    assert 0 < examined["pairs"] <= 2 * size


def test_dual_pair_rule_takes_each_dual_once(monkeypatch):
    'a star of 40 distinct leaves: 1560 dual-pair tests, at most one dual per vertex'
    k = 41
    g = build_graph([KRFactor(k + 2, k, 1)] + [KRFactor(k + 2 + t, 0, 1)
                                               for t in range(2 - k, k - 1, 2)],
                    DynkinA(2 * k + 3))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(qfgraph.decision, "dual", counted("dual", qfgraph.drinfeld.dual))
    monkeypatch.setattr(qfgraph.decision, "dual_pair_simple",
                        counted("dual_pair_simple", dual_pair_simple))
    assert classify(g).tag == TREE and len(g) == k and _tree_dual_pairs_simple(g)
    assert calls["dual_pair_simple"] == (k - 1) * (k - 2)
    assert calls["dual"] <= len(g)


def sort_everything_first_simple_triple(g):
    """The triple scan the streamed one replaced: list every alternating
    triple, sort them all by their sorted ids, and test them in that order."""
    triples = []
    for mid in range(len(g)):
        for ends in (g.out[mid], g.into[mid]):
            triples.extend((mid, a, b) for a, b in itertools.combinations(ends, 2))
    for mid, a, b in sorted(triples, key=sorted):
        if cut_simple(_alt_configs(g, mid, a, b)) or \
                cut_simple(_alt_configs(g, mid, b, a)):
            return tuple(sorted((mid, a, b)))
    return None


def _first_found_triple(g):
    """The first simple triple in stream order, without comparing streams."""
    for mid in range(len(g)):
        for ends in (g.out[mid], g.into[mid]):
            for a, b in itertools.combinations(ends, 2):
                if cut_simple(_alt_configs(g, mid, a, b)) or \
                        cut_simple(_alt_configs(g, mid, b, a)):
                    return tuple(sorted((mid, a, b)))
    return None


def _random_star(rng: random.Random, kind: str) -> QFactGraph:
    """A tree of one or two hubs with leaves linked to them, above and below:
    a few leaves each repeated ("copies"), distinct leaves ("distinct"), or
    distinct leaves kept only while no triple is simple ("prime")."""
    n = rng.randint(2, 5)
    diagram = DynkinA(n)

    def linked(base):
        color, weight = rng.randint(1, n), rng.randint(1, 4)
        gap = rng.choice(r_set(diagram, base.color, base.weight, color, weight))
        return KRFactor(color, base.exponent + rng.choice((-1, 1)) * gap, weight)

    hubs = [KRFactor(rng.randint(1, n), 0, rng.randint(1, 4))]
    if rng.random() < 0.5:
        hubs.append(linked(hubs[0]))
    factors = list(hubs)
    drawn = {hub: [] for hub in hubs}
    for _ in range(rng.randint(3, 14) if kind != "prime" else 40):
        hub = rng.choice(hubs)
        if kind == "copies" and drawn[hub] and rng.random() < 0.8:
            leaf = rng.choice(drawn[hub])
        else:
            leaf = linked(hub)
        g = build_graph(factors + [leaf], diagram)
        if not g.was_refactorized and g.is_tree() and len(g) == len(factors) + 1 \
                and (kind != "prime" or sort_everything_first_simple_triple(g) is None):
            factors.append(leaf)
            drawn[hub].append(leaf)
    return build_graph(factors, diagram)


def test_streamed_triple_scan_matches_sort_everything_oracle():
    'same witness on seeded trees and on stars of copies and of distinct leaves'
    rng = random.Random(20261020)
    graphs = [random_tree_graph(rng, max_rank=6, max_vertices=8, max_weight=4)
              for _ in range(1000)]
    graphs += [_random_star(rng, kind) for kind, count in
               (("copies", 500), ("distinct", 500), ("prime", 300))
               for _ in range(count)]
    seen = Counter()
    for g in graphs:
        want = sort_everything_first_simple_triple(g)
        cut = _first_simple_cut(g)
        assert (cut and tuple(sorted(cut))) == want, [v.label() for v in g.vertices]
        degree = max(len(g.out[v]) + len(g.into[v])
                     for v in range(len(g)))
        copies = len(set(g.vertices)) < len(g)
        seen["high degree", want is None] += degree >= 6
        seen["copies", want is None] += copies and degree >= 6
        seen["later stream wins"] += _first_found_triple(g) != want
    for key in (("high degree", True), ("high degree", False),
                ("copies", False), "later stream wins"):
        assert seen[key] > 25, (key, seen)


def config_per_cut_first_simple_cut(g):
    """The scan that built and validated a config for every end cut, where the
    engine computes each end's per-arrow part once: same order, same stop rule,
    same budget, same (middle, isolated end, other end)."""
    best, cut, budget = None, None, qfgraph.graph.MAX_BUILD_PAIRS
    for mid in range(len(g)):
        for ends in (g.out[mid], g.into[mid]):
            for a, b in itertools.combinations(ends, 2):
                key = tuple(sorted((mid, a, b)))
                if best is not None and key >= best:
                    break
                for iso, other in ((a, b), (b, a)):
                    budget -= 1
                    if budget < 0:
                        raise _over_budget("end cuts")
                    if cut_simple(_alt_configs(g, mid, iso, other)):
                        best, cut = key, (mid, iso, other)
                        break
                if best == key:
                    break
    return cut


def _scan_outcome(scan, g):
    'the witness a scan returns, or the text of the ValueError it raises'
    try:
        return scan(g)
    except ValueError as error:
        return str(error)


def test_scan_matches_config_per_cut_reference():
    'same witness on random trees without building a config per end cut'
    rng = random.Random(20261019)
    found = 0
    for _ in range(3000):
        g = random_tree_graph(rng, max_rank=6, max_vertices=9, max_weight=4)
        want = config_per_cut_first_simple_cut(g)
        assert _first_simple_cut(g) == want, [v.label() for v in g.vertices]
        found += want is not None
    assert found == 1322


def test_scan_stops_at_the_budget_of_the_config_per_cut_reference(monkeypatch):
    'a star of 40 distinct leaves: 1560 end cuts, none simple, refused below that'
    k = 41
    g = build_graph([KRFactor(k + 2, k, 1)] + [KRFactor(k + 2 + t, 0, 1)
                                               for t in range(2 - k, k - 1, 2)],
                    DynkinA(2 * k + 3))
    for budget in (0, 1, 2, 39, 40, 1000, 1559, 1560):
        monkeypatch.setattr(qfgraph.graph, "MAX_BUILD_PAIRS", budget)
        want = None if budget >= 1560 else \
            f"the tree rules would test more than {budget} end cuts"
        assert _scan_outcome(config_per_cut_first_simple_cut, g) == want
        assert _scan_outcome(_first_simple_cut, g) == want


def test_sixteen_vertex_tree_without_simple_triple():
    'the scan decides a 16-vertex tree the subset recursion takes minutes on'
    factors = [(2, 0, 3), (1, 7, 3), (2, 12, 1), (1, 16, 2), (2, 19, 2),
               (1, 23, 1), (1, -7, 3), (2, -13, 2), (2, 27, 2), (1, 30, 2),
               (1, -17, 1), (2, 36, 3), (2, -20, 1), (1, 40, 2), (2, 46, 3),
               (2, 36, 1)]
    g = build_graph([KRFactor(*f) for f in factors], DynkinA(2))
    assert len(g) == 16 and g.is_tree()
    start = time.perf_counter()
    verdict = is_prime(g)
    elapsed = time.perf_counter() - start
    assert verdict.primality == UNKNOWN
    assert [step.rule for step in verdict.certificate] == ["inconclusive"]
    assert elapsed < 1.0


def oracle_random_tree_graph(rng: random.Random, max_rank: int = 5,
                             max_vertices: int = 5, max_weight: int = 3) -> QFactGraph:
    """The tree generator that builds the whole graph for every candidate leaf."""
    n = rng.randint(1, max_rank)
    diagram = DynkinA(n)
    factors = [KRFactor(rng.randint(1, n), 0, rng.randint(1, max_weight))]
    graph = build_graph(factors, diagram)
    target = rng.randint(1, max_vertices)
    attempts = 0
    while len(factors) < target and attempts < 40:
        attempts += 1
        parent = rng.choice(factors)
        color = rng.randint(1, n)
        weight = rng.randint(1, max_weight)
        gaps = r_set(diagram, color, weight, parent.color, parent.weight)
        gap = rng.choice(gaps) * rng.choice((-1, 1))
        candidate = KRFactor(color, parent.exponent + gap, weight)
        trial = build_graph(factors + [candidate], diagram)
        if trial.was_refactorized or not trial.is_tree() or \
                len(trial) != len(factors) + 1:
            continue
        factors.append(candidate)
        graph = trial
    return graph


def test_tree_generator_matches_build_per_candidate_oracle():
    'same graphs from the same draws, at the default bounds and at (6, 8, 4)'
    for bounds, max_vertices in (((), 5), ((6, 8, 4), 8)):
        rng, oracle_rng = random.Random(4242), random.Random(4242)
        sizes = set()
        for _ in range(3000):
            g = random_tree_graph(rng, *bounds)
            h = oracle_random_tree_graph(oracle_rng, *bounds)
            assert (g.diagram.n, g.vertices, g.arrows, g.was_refactorized) == \
                (h.diagram.n, h.vertices, h.arrows, h.was_refactorized)
            assert rng.getstate() == oracle_rng.getstate()
            sizes.add(len(g))
        assert sizes == set(range(1, max_vertices + 1))
