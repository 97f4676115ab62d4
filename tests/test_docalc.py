"""Interventions and rule replay, pinned against a step-literal oracle
that applies the edit steps one at a time with plain set operations."""

import operator
import random
from functools import cache, partial
from itertools import permutations, product

import numpy as np
import pytest

from ampadmg import docalc, graph, separation
from ampadmg import (
    Dialect,
    MixedGraph,
    NodeOutOfRangeError,
    OverlappingSetsError,
    ParseError,
    RuleApplication,
    SeparationQuery,
    check_derivation,
    ci_test,
    enumerate_graphs,
    intervene,
    magnify,
    marginal_graph,
    parse,
    parse_derivation,
    random_sem,
    rule_applicable,
    separated,
    set_members,
    with_regime_nodes,
)
from ampadmg.graph import MAX_GRAPH_NODES
from conftest import (DATA, gf_regression, gf_separated, gf_surgery, load_bench, random_graph,
                      singleton_queries, surgery)


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


def test_intervene_matches_the_bench_oracle():
    # bench/oracle.py cuts plain edge sets and shares no code with the
    # package: every graph with n <= 3 in both dialects, then seeded graphs
    # with n = 4..6, each under every forced set.
    oracle = load_bench("oracle")
    rng = random.Random(21)
    graphs = [g for d in Dialect for n in (1, 2, 3) for g in enumerate_graphs(n, d)]
    graphs += [random_graph(rng, n, biarrow_ok=True) for n in (4, 5, 6) for _ in range(40)]
    checked = 0
    for g in graphs:
        og = oracle.Graph(g.n, g.arrows, g.lines, g.biarrows)
        for xm in range(1 << g.n):
            x = set_members(xm, g.n)
            cut = intervene(g, x)
            assert (oracle.Graph(cut.n, cut.arrows, cut.lines, cut.biarrows)
                    == oracle.intervene(og, x)), (g, x)
            checked += 1
    assert checked == 7_732


def test_intervene_idempotent():
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng, rng.choice((3, 4, 5, 6)), biarrow_ok=True)
        x = [v for v in range(1, g.n + 1) if rng.random() < 0.4]
        once = intervene(g, x)
        assert intervene(once, x) == once
    assert intervene(g, range(1, g.n + 1)) == MixedGraph(g.n)


def test_intervene_on_nothing_is_the_graph_and_ignores_order(mixed6):
    assert intervene(mixed6, ()) is mixed6
    assert intervene(mixed6, [2, 3]) == intervene(mixed6, [3, 2])
    assert intervene(mixed6, [2]) != intervene(mixed6, [2, 3])


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
    # The k-th target in increasing order gets the indicator node n + k.
    rg = with_regime_nodes(ident_alt, [1, 3])
    assert with_regime_nodes(ident_alt, [3, 1]) == rg
    assert rg.n == 5
    assert rg.children({4}) == {1} and rg.children({5}) == {3}
    assert rg.node_names == ("A", "B", "C", "F_A", "F_C")
    assert rg.arrows == set(ident_alt.arrows) | {(4, 1), (5, 3)}
    # indicators only point into their targets
    assert rg.lines == ident_alt.lines
    for f in (4, 5):
        assert not any(f in e for e in rg.lines)
    # An indicator label is primed until it clashes with no other label.
    clash = MixedGraph(2, node_names=("A", "F_A"))
    assert with_regime_nodes(clash, [1]).node_names == ("A", "F_A", "F_A'")


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


def test_parse_derivation_numeric(ident_alt):
    steps = parse_derivation("rule 1 x=1 y=2,3 z= w=\n\n# trailing comment\n", ident_alt)
    assert steps == (
        RuleApplication(1, frozenset({1}), frozenset({2, 3}), frozenset(), frozenset()),
    )


def test_parse_derivation_errors(ident_alt):
    with pytest.raises(ParseError, match="line 1"):
        parse_derivation("rule 1 x=Q y=2 z= w=", ident_alt)
    with pytest.raises(ParseError, match="line 2"):
        parse_derivation("rule 1 x= y=1 z= w=\nrule one x= y=1 z= w=", ident_alt)
    with pytest.raises(ParseError, match="line 1"):
        parse_derivation("rule 7 x= y=1 z= w=", ident_alt)


def test_parse_derivation_checks_range_only_against_a_graph(ident_alt):
    with pytest.raises(ParseError, match="line 2: node 4 out of range"):
        parse_derivation("rule 1 x= y=A z= w=\nrule 1 x= y=4 z= w=", ident_alt)
    with pytest.raises(ParseError, match="line 1: node 0 out of range"):
        parse_derivation("rule 1 x=0 y=2 z= w=", ident_alt)
    # No graph-less mode leaves the range check to rule_applicable.
    with pytest.raises(TypeError):
        parse_derivation("rule 1 x=1 y=2 z= w=")


def test_a_step_built_from_sets_is_the_step_a_script_reads(ident_alt):
    # parse_derivation reads each set straight into a mask; the public
    # constructor takes sets.  The two build equal steps with equal hashes,
    # whose sets are frozenset views of the masks.
    read = parse_derivation("rule 2 x=A y=B,C z= w=\nrule 3 x= y=2 z=1,A w=3\n", ident_alt)
    built = (RuleApplication(2, {1}, [2, 3], (), frozenset()),
             RuleApplication(3, [], {np.int64(2)}, {1}, [3]))
    assert read == built and list(map(hash, read)) == list(map(hash, built))
    assert len({*read, *built}) == 2
    for s in read + built:
        assert all(type(v) is frozenset for v in (s.x, s.y, s.z, s.w))
    assert (read[0].xm, read[0].ym, read[0].zm, read[0].wm) == (0b1, 0b110, 0, 0)
    assert (read[1].x, read[1].y, read[1].z, read[1].w) == (set(), {2}, {1}, {3})
    assert read[0] != RuleApplication(1, {1}, {2, 3}, (), ())


def test_a_step_refuses_what_no_graph_can_hold():
    with pytest.raises(ValueError, match="rule must be 1, 2 or 3, got 4"):
        RuleApplication(4, (), {1}, {2}, ())
    for bad, message in ((0, "node 0 out of range"), (MAX_GRAPH_NODES + 1, "node 100001 out"),
                         (2.0, "is not an integer")):
        with pytest.raises(NodeOutOfRangeError, match=message):
            RuleApplication(1, (), {1}, {bad, 3}, ())


def test_check_derivation_range_checks_steps_read_for_a_bigger_graph(ident_alt):
    # Steps read for a 9-node graph, replayed on a 3-node one: the refusal
    # names the lowest node past 3 of the first set holding one, as
    # rule_applicable does for the same sets.
    big = parse("nodes 9\n")
    steps = parse_derivation("rule 1 x= y=1 z=2 w=\nrule 2 x=1 y=2 z=9,5 w=7,4\n", big)
    with pytest.raises(NodeOutOfRangeError, match=r"^node 5 out of range 1\.\.3$"):
        check_derivation(ident_alt, steps)
    with pytest.raises(NodeOutOfRangeError, match=r"^node 5 out of range 1\.\.3$"):
        rule_applicable(ident_alt, 2, {1}, {2}, {9, 5}, {7, 4})
    assert check_derivation(ident_alt, steps[:1]) == (
        rule_applicable(ident_alt, 1, (), {1}, {2}, ()),)


def test_check_derivation(ident_alt, ident_orig):
    steps = parse_derivation((DATA / "ident-deriv.txt").read_text(), ident_alt)
    assert check_derivation(ident_alt, steps) == (True, True)
    assert check_derivation(ident_orig, steps) == (True, False)
    assert check_derivation(ident_alt, ()) == ()


# -- against structural-equation surgery ----------------------------------------
#
# do(D) on a linear SEM: D's equations lose their parents, D gets independent
# unit noise, and every other node keeps the marginal of its noise covariance.
# Each rule's premise must hold exactly when its Gaussian identity does, and a
# separation of intervene(g, D) exactly when the partial correlation under
# do(D) vanishes.  Only random_sem and ci_test come from the package; the
# surgery is conftest.surgery.

SURGERY_TOL = 1e-8


def _regression(sigma, y, s):
    # The coefficients of y on the nodes s, in sorted order, then the
    # residual variance.
    s = [i - 1 for i in sorted(s)]
    coef = np.linalg.solve(sigma[np.ix_(s, s)], sigma[s, y - 1]) if s else np.zeros(0)
    return np.append(coef, sigma[y - 1, y - 1] - coef @ sigma[s, y - 1])


def _near(a, b):
    return np.abs(a - b).max() < SURGERY_TOL


def _rule_identity(cov, rule, x, y, z, w, regression=_regression, same=_near):
    # y and z are nodes; cov(d) is the covariance under do(d), d a frozenset.
    # regression and same default to floats at SURGERY_TOL.
    xz, xzw = x | {z}, x | {z} | w

    def z_free(d):
        return same(regression(cov(d), y, xzw)[sorted(xzw).index(z)], 0)

    if rule == 1:  # p(y | do(x), z, w) = p(y | do(x), w)
        return z_free(x)
    if rule == 2:  # p(y | do(x), do(z), w) = p(y | do(x), z, w)
        return same(regression(cov(xz), y, xzw), regression(cov(x), y, xzw))
    # p(y | do(x), do(z), w) = p(y | do(x), w)
    return (z_free(xz)
            and same(regression(cov(xz), y, x | w), regression(cov(x), y, x | w)))


def _single_premises(n):
    # Every (x, y, z, w) over nodes 1..n with y and z single nodes, in a
    # fixed order; rules 1-3 are asked of each.
    nodes = range(1, n + 1)
    for y, z in permutations(nodes, 2):
        rest = [v for v in nodes if v not in (y, z)]
        for roles in product("xw-", repeat=len(rest)):
            x = frozenset(v for v, r in zip(rest, roles) if r == "x")
            w = frozenset(v for v, r in zip(rest, roles) if r == "w")
            yield x, y, z, w


def _surgery_graphs():
    # Every alternative graph with n = 3, then a seeded sample with n = 4;
    # each with its random_sem, seeded by its position.
    graphs = list(enumerate_graphs(3, Dialect.ALTERNATIVE))
    rng = random.Random(61)
    graphs += [random_graph(rng, 4) for _ in range(40)]
    for seed, g in enumerate(graphs):
        yield g, cache(partial(surgery, random_sem(g, seed)))


def test_rule_premises_match_sem_surgery():
    held = broken = 0
    for g, cov in _surgery_graphs():
        for x, y, c, w in _single_premises(g.n):
            for rule in (1, 2, 3):
                premise = rule_applicable(g, rule, x, {y}, {c}, w)
                assert premise == _rule_identity(cov, rule, x, y, c, w), (g, rule, x, y, c, w)
                held += premise
                broken += not premise
    assert held > 1000 and broken > 1000


def test_rule_premises_match_exact_surgery_in_both_dialects():
    # _rule_identity over GF(p), equality in place of the tolerance: every
    # graph with n = 3 in both dialects, then 40 seeded graphs with n = 4,
    # biarrows allowed.  Graph k's SEM is drawn from Random(k) under every
    # d, so do(x) and do(x + z) share one B and N.
    rng = random.Random(71)
    graphs = [g for dialect in Dialect for g in enumerate_graphs(3, dialect)]
    graphs += [random_graph(rng, 4, biarrow_ok=True) for _ in range(40)]
    held = checked = 0
    for k, g in enumerate(graphs):
        cov = cache(lambda d, g=g, k=k: gf_surgery(g, random.Random(k), d))
        for x, y, c, w in _single_premises(g.n):
            for rule in (1, 2, 3):
                premise = rule_applicable(g, rule, x, {y}, {c}, w)
                assert premise == _rule_identity(cov, rule, x, y, c, w, gf_regression,
                                                 operator.eq), (g, rule, x, y, c, w)
                held += premise
                checked += 1
    assert checked == 34_560 and 1000 < held < checked - 1000


def test_intervene_matches_sem_surgery():
    for g, cov in _surgery_graphs():
        for dm in range(1 << g.n):
            d = frozenset(v for v in range(1, g.n + 1) if dm >> (v - 1) & 1)
            cut, sigma = intervene(g, d), cov(d)
            for a, b, z in singleton_queries(g.n):
                assert separated(cut, SeparationQuery({a}, {b}, z)) == ci_test(sigma, a, b, z), \
                    (g, d, a, b, z)


def test_intervene_matches_exact_surgery_in_both_dialects():
    # Every graph with n = 3 in both dialects, then 60 seeded graphs with
    # n = 4, biarrows allowed.  For every d, criterion 2 on intervene(g, d)
    # must equal the singularity of a minor of an exact SEM's Sigma under
    # do(d): the marginalised lines in one dialect, the dropped biarrows in
    # the other.
    rng = random.Random(67)
    graphs = [g for dialect in Dialect for g in enumerate_graphs(3, dialect)]
    graphs += [random_graph(rng, 4, biarrow_ok=True) for _ in range(60)]
    checked = 0
    for g in graphs:
        for dm in range(1 << g.n):
            d = set_members(dm, g.n)
            cut, sigma = intervene(g, d), gf_surgery(g, rng, d)
            for a, b, z in singleton_queries(g.n):
                sep = gf_separated(sigma, a, b, z)
                assert separated(cut, SeparationQuery({a}, {b}, z)) == sep, (g, d, a, b, z)
                checked += 1
    assert checked == 42_240


def test_rules_2_and_3_build_no_graph(monkeypatch):
    # Rule 1 asks connects_route once, on the n-node cut graph.  Rules 2 and
    # 3 start the walk automaton at z's arrowheads on the cut masks: no
    # graph, no query, no connects_route call.
    built, asked = [], []
    for cls in (MixedGraph, SeparationQuery):
        def recording(owner, *args, _real=cls.__dict__["_from_masks"].__func__, **kwargs):
            built.append(_real(owner, *args, **kwargs))
            return built[-1]
        monkeypatch.setattr(cls, "_from_masks", classmethod(recording))

    def counting_route(g, q):
        asked.append(g.n)
        return separation.connects_route(g, q)

    monkeypatch.setattr(docalc, "connects_route", counting_route)
    cases = [(parse((DATA / name).read_text()), shape)
             for name in ("ident-alt.g", "ident-orig.g") for shape in _premise_shapes(3)]
    cases.append((random_graph(random.Random(73), 6, biarrow_ok=True),
                  ({1}, {2}, {3, 4}, {5})))
    for g, shape in cases:
        for rule in (1, 2, 3):
            built.clear()
            asked.clear()
            rule_applicable(g, rule, *shape)
            if rule == 1:
                assert asked == [g.n] and [type(b) for b in built] == [MixedGraph,
                                                                      SeparationQuery]
                assert built[0].n == g.n
            else:
                assert built == [] and asked == [], (g, rule, shape)


def test_intervention_work_follows_the_edges_at_x(monkeypatch):
    # On 100,001 nodes and three edges, intervening on node 3 and checking a
    # rule premise with x = {3} walk a handful of node ids, not one per row.
    real, walked = graph._bits, []

    def counting_bits(mask):
        for v in real(mask):
            walked.append(v)
            yield v

    for module in (graph, docalc, separation):
        monkeypatch.setattr(module, "_bits", counting_bits)
    big = MAX_GRAPH_NODES + 1
    g = MixedGraph(big, arrows={(1, 3)}, lines={(2, 3), (3, 4)})
    calls = [lambda: intervene(g, {3})]
    calls += [partial(rule_applicable, g, rule, {3}, {1}, {2}, ()) for rule in (1, 2, 3)]
    for call in calls:
        walked.clear()
        call()
        assert len(walked) <= 16
