"""The tree rules against the subset recursion they replace.

The engine decides a tree with one scan of its alternating triples.  The
oracle below decides it by recursion instead: into every proper connected
subgraph, smallest first, memoized up to exponent translation, then the
dual-pair rule, then a search of tree-edge cuts for a neighbor witness.
Both must give byte-identical traced verdicts, and the witness search must
never be the rule that decides.
"""

import json
import random
import time

from qfgraph.decision import (NOT_PRIME, PRIME, UNKNOWN, CertStep, Verdict,
                              _alt_configs, alt_line_cut_simple, decide,
                              dual_pair_simple, is_prime, is_real)
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.fixtures import cesubpt_factors, cosubpt_factors, newprimex_factors
from qfgraph.graph import build_graph
from qfgraph.sweeps import random_tree_graph

TREE_RULES = ("subgraph_not_prime", "dual_pairs_simple", "inconclusive")


def _canonical_key(g) -> tuple:
    base = min(v.exponent for v in g.vertices)
    verts = tuple((v.color, v.exponent - base, v.weight) for v in g.vertices)
    arrows = tuple(sorted((a.tail, a.head, a.epsilon) for a in g.arrows))
    return (g.diagram.n, verts, arrows)


def oracle_is_prime(g, memo: dict, witness_fired: list) -> Verdict:
    key = _canonical_key(g)
    if key not in memo:
        verdict = is_prime(g)
        if g.is_tree() and verdict.certificate[-1].rule in TREE_RULES:
            verdict = _oracle_tree_rules(g, memo, witness_fired)
        memo[key] = verdict
    return memo[key]


def _oracle_tree_rules(g, memo: dict, witness_fired: list) -> Verdict:
    sub = _tree_subgraph_not_prime(g, memo, witness_fired)
    if sub is not None:
        return Verdict(NOT_PRIME, certificate=[CertStep(
            "subgraph_not_prime", "every proper connected subgraph of a prime "
            "tree is prime; a non-prime subgraph refutes primality",
            {"subgraph": [v.label() for v in sub.vertices]})])
    n = len(g)
    if all(dual_pair_simple(g.vertices[u], g.vertices[v], g.diagram)
           and dual_pair_simple(g.vertices[v], g.vertices[u], g.diagram)
           for u in range(n) for v in range(u + 1, n) if not g.adjacent(u, v)):
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


def _tree_subgraph_not_prime(g, memo: dict, witness_fired: list):
    for size in range(2, len(g)):
        for sub in g.connected_subgraphs(size):
            if oracle_is_prime(sub, memo, witness_fired).primality == NOT_PRIME:
                return sub
    return None


def _tree_cut_witness(g):
    for a in g.arrows:
        u, v = a.tail, a.head
        for w in g.out_neighbors(u):
            if w == v or g.adjacent(w, v):
                continue
            if alt_line_cut_simple(_alt_configs(g, u, v, w)):
                return ((u, v), w, v)
        for w in g.in_neighbors(v):
            if w == u or g.adjacent(w, u):
                continue
            if alt_line_cut_simple(_alt_configs(g, v, u, w)):
                return ((u, v), w, u)
    return None


def _traced(verdict: Verdict) -> str:
    return json.dumps(verdict.to_json(trace=True), sort_keys=True)


def _agree(g, witness_fired: list) -> str:
    p = oracle_is_prime(g, {}, witness_fired)
    r = is_real(g)
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
