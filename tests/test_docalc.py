"""Interventions and rule replay, pinned against a step-literal oracle
that applies the edit steps one at a time with plain set operations."""

import random
from functools import cache, partial
from itertools import permutations, product

import numpy as np
import pytest

from ampadmg import (
    Dialect,
    MalformedScriptError,
    MixedGraph,
    NodeOutOfRangeError,
    OverlappingSetsError,
    RuleApplication,
    SeparationQuery,
    check_derivation,
    ci_test,
    enumerate_graphs,
    intervene,
    magnify,
    marginal_graph,
    parse_derivation,
    random_sem,
    rule_applicable,
    separated,
    with_regime_nodes,
)
from conftest import DATA, load_bench, random_graph, singleton_queries


def oracle_intervene(g, x):
    x = set(x)
    arrows = frozenset(e for e in g.arrows if e[1] not in x)
    if g.biarrows:
        bi = frozenset(e for e in g.biarrows if not set(e) & x)
        return MixedGraph(g.n, arrows, biarrows=bi)
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.lines:
        adj[a].add(b)
        adj[b].add(a)
    lines = {e for e in g.lines if not set(e) & x}
    for a in range(1, g.n + 1):
        if a in x:
            continue
        # every node reachable from a through forced inner nodes only
        seen = set()
        stack = [v for v in adj[a] if v in x]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for w in adj[v]:
                if w in x:
                    stack.append(w)
                elif w != a:
                    lines.add((min(a, w), max(a, w)))
    return MixedGraph(g.n, arrows, frozenset(lines))


# -- intervene -----------------------------------------------------------------


def test_intervene_examples(ident_alt):
    cut = intervene(ident_alt, [1])
    assert cut.arrows == {(1, 2)}
    assert cut.lines == {(2, 3)}

    assert intervene(ident_alt, []) == ident_alt

    path = MixedGraph(3, lines=[(1, 2), (2, 3)])
    assert intervene(path, [2]) == MixedGraph(3, lines=[(1, 3)])


def test_intervene_regime_shapes():
    g = MixedGraph(3, arrows=[(1, 2)], lines=[(2, 3)])
    assert intervene(g, [3]) == MixedGraph(3, arrows=[(1, 2)])

    h = MixedGraph(3, arrows=[(1, 2)], lines=[(1, 3), (2, 3)])
    assert intervene(h, [3]) == MixedGraph(3, arrows=[(1, 2)], lines=[(1, 2)])


def test_intervene_bridges_forced_blocks():
    g = MixedGraph(4, lines=[(1, 2), (2, 3), (3, 4)])
    assert intervene(g, [2, 3]) == MixedGraph(4, lines=[(1, 4)])
    # two disconnected forced blocks do not bridge across each other
    h = MixedGraph(4, lines=[(1, 2), (3, 4)])
    assert intervene(h, [2, 3]) == MixedGraph(4)


def test_intervene_original_dialect(ident_orig):
    assert intervene(ident_orig, [1]) == MixedGraph(
        3, arrows=[(1, 2)], biarrows=[(2, 3)])
    assert intervene(ident_orig, [2]) == MixedGraph(3, biarrows=[(1, 3)])


def test_intervene_keeps_names(ident_alt):
    assert intervene(ident_alt, [1]).node_names == ("A", "B", "C")


def test_intervene_range_error(ident_alt):
    with pytest.raises(NodeOutOfRangeError):
        intervene(ident_alt, [9])


def test_intervene_matches_step_oracle():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, rng.choice((3, 4, 5)), biarrow_ok=True)
        x = [v for v in range(1, g.n + 1) if rng.random() < 0.4]
        assert intervene(g, x) == oracle_intervene(g, x)


def test_intervene_idempotent():
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng, rng.choice((3, 4, 5, 6)), biarrow_ok=True)
        x = [v for v in range(1, g.n + 1) if rng.random() < 0.4]
        once = intervene(g, x)
        assert intervene(once, x) == once
    assert intervene(g, range(1, g.n + 1)) == MixedGraph(g.n)


def test_intervene_is_memoised_per_graph_and_set(mixed6):
    assert intervene(mixed6, ()) is mixed6
    cut = intervene(mixed6, [2, 3])
    assert intervene(mixed6, [3, 2]) is cut
    assert intervene(mixed6, [2]) is not cut
    assert all(g is not mixed6 for g in mixed6._cut_cache.values())


def test_intervene_agrees_with_magnified_marginal():
    # cutting lines at x then bridging equals marginalising the error-node
    # graph of the magnified view onto the surviving error nodes
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, rng.choice((3, 4, 5, 6)))
        n = g.n
        x = [v for v in range(1, n + 1) if rng.random() < 0.4]
        mg = magnify(g)
        eps_ug = MixedGraph(mg.n, lines=mg.lines)
        kept = set(range(1, mg.n + 1)) - {n + v for v in x}
        marg = marginal_graph(eps_ug, kept)
        assert {(a - n, b - n) for a, b in marg.lines} == set(intervene(g, x).lines)


# -- rule premises -------------------------------------------------------------


def test_rule_examples(ident_alt, ident_orig):
    assert rule_applicable(ident_alt, 3, [], [3], [1], [])
    assert rule_applicable(ident_alt, 2, [], [2], [1], [3])
    assert not rule_applicable(ident_orig, 2, [], [2], [1], [3])


def test_rule_chain_classics():
    chain = MixedGraph(3, arrows=[(1, 2), (2, 3)])
    # dropping an observed ancestor once its mediator is held
    assert rule_applicable(chain, 1, [], [3], [1], [2])
    # exchanging do(B) for conditioning on B works downstream, not upstream
    assert rule_applicable(chain, 2, [], [3], [2], [])
    assert not rule_applicable(chain, 2, [], [1], [2], [])


def test_rule_empty_z_is_identity(ident_alt):
    for rule in (1, 2, 3):
        assert rule_applicable(ident_alt, rule, [1], [2], [], [3])


def test_rule_argument_validation(ident_alt):
    with pytest.raises(ValueError):
        rule_applicable(ident_alt, 4, [], [1], [2], [])
    with pytest.raises(ValueError):
        rule_applicable(ident_alt, 1, [], [], [2], [])
    with pytest.raises(OverlappingSetsError):
        rule_applicable(ident_alt, 1, [1], [1], [2], [])
    with pytest.raises(NodeOutOfRangeError):
        rule_applicable(ident_alt, 1, [], [1], [9], [])


# -- regime indicator nodes ----------------------------------------------------


def _premise_shapes(n):
    # Every disjoint (x, y, z, w) over nodes 1..n with y and z non-empty.
    for roles in product("xyzw-", repeat=n):
        if "y" in roles and "z" in roles:
            yield tuple(frozenset(v + 1 for v, r in enumerate(roles) if r == role)
                        for role in "xyzw")


def _premises_agree_with_bench_oracle(graphs):
    # bench/oracle.py has its own surgery, one indicator per node of z and
    # networkx d-separation for graphs without lines.
    oracle = load_bench("oracle")
    checked = 0
    for g in graphs:
        og = oracle.Graph(g.n, g.arrows, g.lines, g.biarrows)
        for shape in _premise_shapes(g.n):
            for rule in (1, 2, 3):
                assert (rule_applicable(g, rule, *shape)
                        == oracle.rule_applicable(og, rule, *shape)), (g, rule, shape)
                checked += 1
    return checked


def test_rule_premises_match_an_oracle_sharing_no_code_exhaustively():
    graphs = [g for d in Dialect for n in (1, 2, 3) for g in enumerate_graphs(n, d)]
    assert len(graphs) == 414
    assert _premises_agree_with_bench_oracle(graphs) == 28_872


def test_rule_premises_match_an_oracle_sharing_no_code_at_n4():
    rng = random.Random(16)
    graphs = []
    for _ in range(10):
        g = random_graph(rng, 4)
        graphs += [g, MixedGraph(4, g.arrows, biarrows=g.lines)]
    assert _premises_agree_with_bench_oracle(graphs) == 20 * 194 * 3


def test_with_regime_nodes_structure(ident_alt):
    rg = with_regime_nodes(ident_alt, [1, 3])
    assert rg.graph.n == 5
    assert rg.regime_nodes == ((1, 4), (3, 5))
    assert rg.indicator(1) == 4 and rg.indicator(3) == 5
    assert rg.indicators == {4, 5}
    assert rg.graph.node_names == ("A", "B", "C", "F_A", "F_C")
    assert rg.graph.arrows == set(ident_alt.arrows) | {(4, 1), (5, 3)}
    # indicators only point into their targets
    assert rg.graph.lines == ident_alt.lines
    for f in rg.indicators:
        assert not any(f in e for e in rg.graph.lines)


def test_with_regime_nodes_range_error(ident_alt):
    with pytest.raises(NodeOutOfRangeError):
        with_regime_nodes(ident_alt, [7])


# -- derivation scripts ----------------------------------------------------


def test_parse_derivation_script(ident_alt):
    text = (DATA / "ident-deriv.txt").read_text()
    steps = parse_derivation(text, ident_alt)
    assert steps == (
        RuleApplication(3, frozenset(), frozenset({3}), frozenset({1}), frozenset()),
        RuleApplication(2, frozenset(), frozenset({2}), frozenset({1}), frozenset({3})),
    )


def test_parse_derivation_numeric():
    steps = parse_derivation("rule 1 x=1 y=2,3 z= w=\n\n# trailing comment\n")
    assert steps == (
        RuleApplication(1, frozenset({1}), frozenset({2, 3}), frozenset(), frozenset()),
    )


def test_parse_derivation_errors(ident_alt):
    with pytest.raises(MalformedScriptError, match="line 1"):
        parse_derivation("rule 1 x=Q y=2 z= w=", ident_alt)
    with pytest.raises(MalformedScriptError, match="line 2"):
        parse_derivation("rule 1 x= y=1 z= w=\nrule one x= y=1 z= w=")
    with pytest.raises(MalformedScriptError, match="line 1"):
        parse_derivation("rule 7 x= y=1 z= w=")


def test_parse_derivation_checks_range_only_against_a_graph(ident_alt):
    steps = parse_derivation("rule 1 x=0 y=4 z= w=")
    assert (steps[0].x, steps[0].y) == ({0}, {4})
    with pytest.raises(MalformedScriptError, match="line 2: node 4 out of range"):
        parse_derivation("rule 1 x= y=A z= w=\nrule 1 x= y=4 z= w=", ident_alt)


def test_check_derivation(ident_alt, ident_orig):
    steps = parse_derivation((DATA / "ident-deriv.txt").read_text(), ident_alt)
    report = check_derivation(ident_alt, steps)
    assert report.ok and report.first_failure is None

    report = check_derivation(ident_orig, steps)
    assert not report.ok
    assert report.first_failure == 1

    assert check_derivation(ident_alt, ()).ok


# -- against structural-equation surgery ----------------------------------------
#
# do(D) on a linear SEM: D's equations lose their parents, D gets independent
# unit noise, and every other node keeps the marginal of its noise covariance.
# Each rule's premise must hold exactly when its Gaussian identity does, and a
# separation of intervene(g, D) exactly when the partial correlation under
# do(D) vanishes.  Only random_sem and ci_test come from the package.

SURGERY_TOL = 1e-8


def _surgery(sem, d):
    # The covariance of the variables under do(d); node i is index i - 1.
    n = sem.graph.n
    b = np.zeros((n, n))
    for (t, h), v in sem.beta.items():
        if h not in d:
            b[h - 1, t - 1] = v
    keep = [i - 1 for i in range(1, n + 1) if i not in d]
    noise = np.eye(n)
    noise[np.ix_(keep, keep)] = sem.noise_cov[np.ix_(keep, keep)]
    delta = np.linalg.inv(np.eye(n) - b)
    return delta @ noise @ delta.T


def _regression(sigma, y, s):
    # The coefficients of y on the nodes s, in sorted order, then the
    # residual variance.
    s = [i - 1 for i in sorted(s)]
    coef = np.linalg.solve(sigma[np.ix_(s, s)], sigma[s, y - 1]) if s else np.zeros(0)
    return np.append(coef, sigma[y - 1, y - 1] - coef @ sigma[s, y - 1])


def _rule_identity(cov, rule, x, y, z, w):
    # y and z are nodes; cov(d) is the covariance under do(d), d a frozenset.
    xz, xzw = x | {z}, x | {z} | w

    def same(a, b):
        return np.abs(a - b).max() < SURGERY_TOL

    def z_coef(d):
        return abs(_regression(cov(d), y, xzw)[sorted(xzw).index(z)])

    if rule == 1:  # p(y | do(x), z, w) = p(y | do(x), w)
        return z_coef(x) < SURGERY_TOL
    if rule == 2:  # p(y | do(x), do(z), w) = p(y | do(x), z, w)
        return same(_regression(cov(xz), y, xzw), _regression(cov(x), y, xzw))
    # p(y | do(x), do(z), w) = p(y | do(x), w)
    return (z_coef(xz) < SURGERY_TOL
            and same(_regression(cov(xz), y, x | w), _regression(cov(x), y, x | w)))


def _surgery_graphs():
    # Every alternative graph with n = 3, then a seeded sample with n = 4;
    # each with its random_sem, seeded by its position.
    graphs = list(enumerate_graphs(3, Dialect.ALTERNATIVE))
    rng = random.Random(61)
    graphs += [random_graph(rng, 4) for _ in range(40)]
    for seed, g in enumerate(graphs):
        yield g, cache(partial(_surgery, random_sem(g, seed)))


def test_rule_premises_match_sem_surgery():
    held = broken = 0
    for g, cov in _surgery_graphs():
        nodes = range(1, g.n + 1)
        for y, c in permutations(nodes, 2):
            rest = [v for v in nodes if v not in (y, c)]
            for roles in product("xw-", repeat=len(rest)):
                x = frozenset(v for v, r in zip(rest, roles) if r == "x")
                w = frozenset(v for v, r in zip(rest, roles) if r == "w")
                for rule in (1, 2, 3):
                    premise = rule_applicable(g, rule, x, {y}, {c}, w)
                    assert premise == _rule_identity(cov, rule, x, y, c, w), (g, rule, x, y, c, w)
                    held += premise
                    broken += not premise
    assert held > 1000 and broken > 1000


def test_intervene_matches_sem_surgery():
    for g, cov in _surgery_graphs():
        for dm in range(1 << g.n):
            d = frozenset(v for v in range(1, g.n + 1) if dm >> (v - 1) & 1)
            cut, sigma = intervene(g, d), cov(d)
            for a, b, z in singleton_queries(g.n):
                assert separated(cut, SeparationQuery({a}, {b}, z)) == ci_test(sigma, a, b, z), \
                    (g, d, a, b, z)
