"""Exact search over graphs, constraint files and the ASP exporter.

The three model counts (37 observational, 18 with the regime-3 batch, 34
when both dialects compete) are the module's golden values; the optimal
score of 3 for each run was frozen from the first verified run.
"""

import gc
import random
import weakref
from dataclasses import replace
from functools import cache
from itertools import combinations, product

import pytest

from ampadmg import (
    Constraint,
    Dialect,
    DirectedCycleError,
    LearnProblem,
    LearnResult,
    MixedGraph,
    NodeOutOfRangeError,
    NoFeasibleModelError,
    ParseError,
    ProblemTooLargeError,
    SeparationQuery,
    atom_line,
    ci_test,
    enumerate_graphs,
    export_asp,
    intervene,
    learn,
    parse_atom_line,
    parse_constraints,
    random_sem,
    regime_graph,
    score,
    separated,
)
from ampadmg import learner
from conftest import DATA, random_graph, singleton_queries, surgery

OBS = parse_constraints((DATA / "indeps-obs.txt").read_text())
FULL = parse_constraints((DATA / "indeps-full.txt").read_text())


# -- constraint and problem validation ------------------------------------------


def test_constraint_validation():
    c = Constraint("dep", 1, 2, {3}, regime=3, weight=2)
    assert c.cond == {3} and c.regime == 3
    Constraint("indep", 1, 2, regime=1)  # regime may hit an endpoint
    with pytest.raises(ValueError):
        Constraint("maybe", 1, 2)
    with pytest.raises(ValueError):
        Constraint("dep", 1, 1)
    with pytest.raises(ValueError):
        Constraint("dep", 1, 2, {2})
    with pytest.raises(ValueError):
        Constraint("dep", 1, 2, weight=-1)


def test_problem_validation():
    with pytest.raises(ValueError):
        LearnProblem(-1)
    with pytest.raises(ValueError):
        LearnProblem(3, dialects=())
    with pytest.raises(ValueError):
        LearnProblem(3, dialects=("alt",))
    with pytest.raises(ValueError):
        LearnProblem(3, line_penalty=-1)
    with pytest.raises(NodeOutOfRangeError):
        LearnProblem(2, (Constraint("dep", 1, 3),))
    with pytest.raises(NodeOutOfRangeError):
        LearnProblem(2, (Constraint("dep", 1, 2, regime=5),))
    with pytest.raises(ValueError):
        LearnProblem(3, forbidden={("line", 1, 2)}, required={("line", 2, 1)})
    with pytest.raises(ValueError):
        LearnProblem(3, ordering=(1, 2))
    with pytest.raises(ValueError):
        LearnProblem(3, forbidden={("wavy", 1, 2)})
    with pytest.raises(ValueError, match="^prior edge endpoints must differ$"):
        LearnProblem(3, forbidden={("arrow", 1, 1)})


def test_prior_normalisation():
    p = LearnProblem(3, forbidden={("line", 3, 1)}, required={("arrow", 2, 1)})
    assert p.forbidden == {("line", 1, 3)}
    assert p.required == {("arrow", 2, 1)}


# -- regime graphs ---------------------------------------------------------------


def test_regime_graph_examples():
    assert regime_graph(MixedGraph(3, arrows=[(1, 2)], lines=[(2, 3)]), 3) \
        == MixedGraph(3, arrows=[(1, 2)])
    assert regime_graph(MixedGraph(3, arrows=[(1, 2)], lines=[(1, 3), (2, 3)]), 3) \
        == MixedGraph(3, arrows=[(1, 2)], lines=[(1, 2)])
    g = MixedGraph(3, arrows=[(1, 2)])
    assert regime_graph(g, 3) == g


def test_regime_graph_is_single_node_intervention():
    for dialect in Dialect:
        for g in enumerate_graphs(3, dialect):
            for i in (1, 2, 3):
                assert regime_graph(g, i) == intervene(g, [i])


# -- scoring ---------------------------------------------------------------------


def test_score_examples():
    assert score(MixedGraph(3), OBS) is None
    complete = MixedGraph(3, lines=[(1, 2), (1, 3), (2, 3)])
    assert score(complete, OBS) == 3


def test_score_arithmetic():
    p = LearnProblem(2, (Constraint("indep", 1, 2, weight=5),))
    assert score(MixedGraph(2), p) == 0
    assert score(MixedGraph(2, lines=[(1, 2)]), p) == 6
    heavy = replace(p, line_penalty=3)
    assert score(MixedGraph(2, lines=[(1, 2)]), heavy) == 8

    hard = LearnProblem(2, (Constraint("dep", 1, 2),))
    assert score(MixedGraph(2), hard) is None
    assert score(MixedGraph(2, lines=[(1, 2)]), hard) == 1


def test_score_rejects_constraint_nodes_beyond_the_graph():
    p = LearnProblem(3, (Constraint("indep", 1, 3),))
    with pytest.raises(NodeOutOfRangeError):
        score(MixedGraph(2), p)
    in_regime = LearnProblem(3, (Constraint("dep", 1, 2, regime=3),))
    with pytest.raises(NodeOutOfRangeError):
        score(MixedGraph(2), in_regime)


def reference_score(g, p):
    # Scores through whole graphs: intervene, then a separation query.
    def connected(c):
        gr = intervene(g, [c.regime]) if c.regime else g
        return not separated(gr, SeparationQuery({c.x}, {c.y}, c.cond))

    if any(c.kind == "dep" and not connected(c) for c in p.constraints):
        return None
    return (len(g.lines) * p.line_penalty + len(g.arrows) * p.arrow_penalty
            + len(g.biarrows) * p.biarrow_penalty
            + sum(c.weight for c in p.constraints
                  if c.kind == "indep" and connected(c)))


def test_score_matches_graph_level_reference():
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(2, 4)
        constraints = []
        for _ in range(rng.randint(1, 4)):
            x, y = rng.sample(range(1, n + 1), 2)
            rest = [v for v in range(1, n + 1) if v not in (x, y)]
            cond = {v for v in rest if rng.random() < 0.4}
            constraints.append(Constraint(rng.choice(("dep", "indep")), x, y, cond,
                                          regime=rng.randint(0, n),
                                          weight=rng.randint(0, 3)))
        p = LearnProblem(n, constraints, line_penalty=rng.randint(0, 2),
                         biarrow_penalty=rng.randint(0, 2))
        g = random_graph(rng, n, biarrow_ok=trial % 2 == 1)
        assert score(g, p) == reference_score(g, p), (g, p)


def test_score_checks_constraints_in_their_regime():
    g = MixedGraph(2, arrows=[(1, 2)])
    cut_regime = LearnProblem(2, (Constraint("dep", 1, 2, regime=2),))
    assert score(g, cut_regime) is None
    kept_regime = LearnProblem(2, (Constraint("dep", 1, 2, regime=1),))
    assert score(g, kept_regime) == 1


def test_score_cuts_each_regime_once(monkeypatch):
    # Regimes 0 and 2 hold a dep and an indep each, regime 1 an indep alone:
    # three regimes, three cuts, in rising order of the regime masks 0, 1, 2.
    p = LearnProblem(3, (Constraint("dep", 1, 3), Constraint("dep", 1, 3, regime=2),
                         Constraint("indep", 1, 3, {2}), Constraint("indep", 2, 3, regime=1),
                         Constraint("indep", 1, 3, regime=2)))
    g = MixedGraph(3, arrows={(1, 2), (2, 3)}, lines={(1, 3)})
    real, cuts = learner._cut, []
    monkeypatch.setattr(learner, "_cut", lambda g, rm: cuts.append(rm) or real(g, rm))
    assert score(g, p) == reference_score(g, p) == 6
    assert cuts == [0, 1, 2]


def test_scored_graph_holds_no_reference_cycle():
    # A candidate is freed when its last reference goes, with the cyclic
    # collector off.  Scoring reads its regime masks and memoises nothing on it.
    p = LearnProblem(3, (Constraint("dep", 1, 3, regime=2),
                         Constraint("indep", 1, 3, {2}),
                         Constraint("indep", 2, 3, regime=1)))
    g = MixedGraph(3, arrows=[(1, 2), (2, 3)], lines=[(1, 3)])
    gc.disable()
    try:
        assert score(g, p) == 5
        assert set(vars(g)) == {"n", "_adj", "node_names"}
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


# -- enumeration -----------------------------------------------------------------


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(2, Dialect.ALTERNATIVE)) == 6
    assert sum(1 for _ in enumerate_graphs(3, Dialect.ALTERNATIVE)) == 200
    assert sum(1 for _ in enumerate_graphs(3, Dialect.ORIGINAL)) == 200
    for dialect in Dialect:
        assert sum(1 for _ in enumerate_graphs(4, dialect)) == 34752


def test_enumerate_is_deterministic():
    first = list(enumerate_graphs(3, Dialect.ALTERNATIVE))
    assert first == list(enumerate_graphs(3, Dialect.ALTERNATIVE))
    assert len(set(first)) == len(first)


def test_learn_builds_the_arrow_sets_once_for_both_dialects(monkeypatch):
    # The arrow options do not depend on the dialect, so the problem keeps
    # its acyclic arrow sets: one _peel per arrow combination, 3 ** 10 at n=5.
    calls = []
    peel = learner._peel
    monkeypatch.setattr(learner, "_peel", lambda *a: calls.append(1) or peel(*a))
    learn(LearnProblem(5, dialects=(Dialect.ALTERNATIVE, Dialect.ORIGINAL)))
    assert len(calls) == 3 ** 10


def test_enumerate_rejects_a_node_count_other_than_the_problems():
    with pytest.raises(ValueError, match="node count 4 differs"):
        list(enumerate_graphs(4, Dialect.ALTERNATIVE, LearnProblem(3, ordering=(1, 2, 3))))


def test_enumerate_respects_priors():
    p = LearnProblem(3, forbidden={("arrow", 1, 2)}, required={("line", 1, 3)})
    for g in enumerate_graphs(3, Dialect.ALTERNATIVE, p):
        assert (1, 2) not in g.arrows
        assert (1, 3) in g.lines

    ordered = LearnProblem(3, ordering=(2, 1, 3))
    for g in enumerate_graphs(3, Dialect.ALTERNATIVE, ordered):
        assert (1, 2) not in g.arrows  # 1 comes after 2 in the ordering

    impossible = LearnProblem(3, required={("biarrow", 1, 2)})
    assert list(enumerate_graphs(3, Dialect.ALTERNATIVE, impossible)) == []
    assert any(g.biarrows == {(1, 2)}
               for g in enumerate_graphs(3, Dialect.ORIGINAL, impossible))


def test_enumerated_graphs_are_acyclic():
    # Candidates skip validation when built, so check them here.
    for n in (3, 4):
        for dialect in Dialect:
            for g in enumerate_graphs(n, dialect):
                g.validate()
                fresh = MixedGraph(n, g.arrows, g.lines, g.biarrows)
                assert g == fresh and g._adj == fresh._adj


# -- golden runs -----------------------------------------------------------------


def test_learn_builds_edge_sets_only_for_its_models(monkeypatch):
    # Candidates are scored on their masks; only the returned models are
    # rendered, so no other candidate may have built its edge-set views.
    yielded = []

    def recording(*args):
        for g in real(*args):
            yielded.append(g)
            yield g

    real = learner.enumerate_graphs
    monkeypatch.setattr(learner, "enumerate_graphs", recording)
    models = {id(m) for m in learn(OBS).models}
    assert len(yielded) > len(models) > 0
    for g in yielded:
        if id(g) not in models:
            assert not {"arrows", "lines", "biarrows"} & g.__dict__.keys(), g


def test_learn_observational_golden():
    result = learn(OBS)
    assert result.optimal_score == 3
    assert len(result.models) == 37
    rendered = {atom_line(m) for m in result.models}
    assert "line(1,2) line(2,3) arrow(1,2)" in rendered
    assert "line(1,2) line(1,3) arrow(2,3)" in rendered
    for m in result.models:
        assert score(m, OBS) == 3


def test_learn_full_golden():
    result = learn(FULL)
    assert result.optimal_score == 3
    assert len(result.models) == 18
    for m in result.models:
        assert not any(t == 3 for t, _h in m.arrows)


def test_learn_both_dialects_golden():
    both = replace(FULL, dialects=(Dialect.ALTERNATIVE, Dialect.ORIGINAL))
    result = learn(both)
    assert result.optimal_score == 3
    assert len(result.models) == 34
    assert sum(1 for m in result.models if m.biarrows) == 16
    rendered = {atom_line(m) for m in result.models}
    assert "biarrow(1,2) biarrow(1,3) arrow(1,2)" in rendered
    assert "biarrow(1,2) biarrow(1,3) arrow(2,3)" in rendered


def test_learn_union_of_dialects():
    both = replace(FULL, dialects=(Dialect.ALTERNATIVE, Dialect.ORIGINAL))
    alt = learn(FULL)
    orig = learn(replace(FULL, dialects=(Dialect.ORIGINAL,)))
    joint = learn(both)
    best = min(alt.optimal_score, orig.optimal_score)
    assert joint.optimal_score == best
    expected = {m for r in (alt, orig) if r.optimal_score == best
                for m in r.models}
    assert set(joint.models) == expected


def test_learn_with_ordering_prior():
    ordered = replace(FULL, ordering=(1, 2, 3))
    result = learn(ordered)
    pos = {1: 0, 2: 1, 3: 2}
    assert result.models
    for m in result.models:
        for t, h in m.arrows:
            assert pos[t] < pos[h]
    assert result.optimal_score >= learn(FULL).optimal_score


def test_learn_never_lowers_score_with_extra_constraints():
    tightened = replace(
        OBS, constraints=OBS.constraints + (Constraint("indep", 1, 3, weight=7),))
    assert learn(tightened).optimal_score >= learn(OBS).optimal_score
    pinned = replace(OBS, required=frozenset({("line", 1, 3)}))
    assert learn(pinned).optimal_score >= learn(OBS).optimal_score


def test_learn_deterministic():
    assert learn(OBS) == learn(OBS)


def test_learn_infeasible():
    # One message covers both causes: every candidate breaks a hard
    # dependence, or the priors leave none (no ORIGINAL graph has a line).
    msg = "^no candidate graph respects the priors and every hard dependence$"
    for p in (LearnProblem(2, (Constraint("dep", 1, 2),),
                           forbidden={("arrow", 1, 2), ("arrow", 2, 1), ("line", 1, 2)}),
              LearnProblem(2, required={("line", 1, 2)}, dialects=(Dialect.ORIGINAL,))):
        with pytest.raises(NoFeasibleModelError, match=msg):
            learn(p)


def test_learn_size_cap():
    with pytest.raises(ProblemTooLargeError):
        learn(LearnProblem(6))
    with pytest.raises(ProblemTooLargeError):
        learn(LearnProblem(3), max_n=2)


# -- bound-ordered search against brute force -----------------------------------
#
# The reference is the plain product-and-score loop: every valid graph, built
# and validated through the public constructor, filtered by the priors, and
# each one scored.


@cache
def all_graphs(n, dialect):
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for combo in product(product((False, True), (0, 1, -1)), repeat=len(pairs)):
        arrows = [(i, j) if a == 1 else (j, i)
                  for (i, j), (_u, a) in zip(pairs, combo) if a]
        und = [pair for pair, (u, _a) in zip(pairs, combo) if u]
        try:
            if dialect is Dialect.ALTERNATIVE:
                out.append(MixedGraph(n, arrows, lines=und))
            else:
                out.append(MixedGraph(n, arrows, biarrows=und))
        except DirectedCycleError:
            pass
    return tuple(out)


def respects_priors(g, p):
    edges = ({("arrow", *e) for e in g.arrows} | {("line", *e) for e in g.lines}
             | {("biarrow", *e) for e in g.biarrows})
    if edges & p.forbidden or not p.required <= edges:
        return False
    if p.ordering is None:
        return True
    pos = {v: k for k, v in enumerate(p.ordering)}
    return all(pos[t] < pos[h] for t, h in g.arrows)


def brute_force_graphs(n, dialect, p):
    return [g for g in all_graphs(n, dialect) if respects_priors(g, p)]


def brute_force_learn(p):
    best, models = None, {}
    for dialect in p.dialects:
        for g in brute_force_graphs(p.n, dialect, p):
            s = score(g, p)
            if s is None:
                continue
            if best is None or s < best:
                best, models = s, {g: None}
            elif s == best:
                models[g] = None
    if best is None:
        raise NoFeasibleModelError("reference: no feasible model")
    return LearnResult(best, tuple(sorted(models, key=atom_line)))


def edge_penalty(g, p):
    return (len(g.lines) * p.line_penalty + len(g.arrows) * p.arrow_penalty
            + len(g.biarrows) * p.biarrow_penalty)


def random_priors(rng, n):
    pairs = list(combinations(range(1, n + 1), 2))
    kinds = ("arrow", "line", "biarrow")
    candidates = [(k, a, b) for k in kinds for a, b in pairs]
    candidates += [("arrow", b, a) for a, b in pairs]
    chosen = rng.sample(candidates, min(len(candidates), rng.randint(0, 3)))
    split = rng.randint(0, len(chosen))
    ordering = None
    if rng.random() < 0.3:
        ordering = list(range(1, n + 1))
        rng.shuffle(ordering)
    return frozenset(chosen[:split]), frozenset(chosen[split:]), ordering


def random_problem(rng, n):
    constraints = []
    for _ in range(rng.randint(1, 5)):
        x, y = rng.sample(range(1, n + 1), 2)
        rest = [v for v in range(1, n + 1) if v not in (x, y)]
        cond = {v for v in rest if rng.random() < 0.4}
        constraints.append(Constraint(rng.choice(("dep", "indep")), x, y, cond,
                                      regime=rng.randint(0, n),
                                      weight=rng.randint(0, 3)))
    penalties = (0, 0, 0) if rng.random() < 0.2 else \
        tuple(rng.randint(0, 2) for _ in range(3))
    forbidden, required, ordering = (
        random_priors(rng, n) if rng.random() < 0.5 else (frozenset(), frozenset(), None))
    return LearnProblem(
        n, constraints,
        dialects=rng.choice(((Dialect.ALTERNATIVE,), (Dialect.ORIGINAL,),
                             (Dialect.ALTERNATIVE, Dialect.ORIGINAL))),
        line_penalty=penalties[0], arrow_penalty=penalties[1],
        biarrow_penalty=penalties[2],
        forbidden=forbidden, required=required, ordering=ordering)


def test_enumerate_is_penalty_ordered_and_matches_brute_force():
    rng = random.Random(3)
    for n in (2, 3, 4):
        for dialect in Dialect:
            for trial in range(3 if n < 4 else 1):
                forbidden, required, ordering = (
                    random_priors(rng, n) if trial else (frozenset(), frozenset(), None))
                p = LearnProblem(n, line_penalty=rng.randint(0, 3),
                                 arrow_penalty=rng.randint(0, 3),
                                 biarrow_penalty=rng.randint(0, 3),
                                 forbidden=forbidden, required=required,
                                 ordering=ordering)
                out = list(enumerate_graphs(n, dialect, p))
                penalties = [edge_penalty(g, p) for g in out]
                assert penalties == sorted(penalties), p
                assert len(set(out)) == len(out)
                assert set(out) == set(brute_force_graphs(n, dialect, p)), p


def test_learn_matches_brute_force():
    rng = random.Random(17)
    seen = set()
    for trial in range(150):
        p = random_problem(rng, rng.choice((2, 3)) if trial % 15 else 4)
        try:
            expected = brute_force_learn(p)
        except NoFeasibleModelError:
            with pytest.raises(NoFeasibleModelError):
                learn(p)
            seen.add("infeasible")
            continue
        assert learn(p) == expected, p
        seen.add(p.dialects)
        if not (p.line_penalty or p.arrow_penalty or p.biarrow_penalty):
            seen.add("zero penalties")
        if p.forbidden or p.required or p.ordering:
            seen.add("priors")
        if any(c.regime for c in p.constraints):
            seen.add("regimes")
    assert len(seen) == 7, seen


# -- learning from exact covariances ---------------------------------------------
#
# The constraints come from data the learner did not write: the covariance of
# a seeded SEM under each single-node intervention (conftest.surgery), one
# weight-1 constraint per singleton query per regime.  A model may beat the
# truth by dropping an edge and breaking one indep, so only a model that breaks
# nothing must have the truth's separations.


def _covariance_problem(truth, seed):
    sem = random_sem(truth, seed)
    constraints = [Constraint("indep" if ci_test(surgery(sem, {r} - {0}), x, y, z) else "dep",
                              x, y, z, regime=r)
                   for r in range(truth.n + 1) for x, y, z in singleton_queries(truth.n)]
    return LearnProblem(truth.n, constraints)


def _regime_separations(g):
    return [[separated(intervene(g, {r} - {0}), SeparationQuery({x}, {y}, z))
             for x, y, z in singleton_queries(g.n)] for r in range(g.n + 1)]


def test_learn_from_exact_covariances():
    kinds = set()
    for n, draws in ((3, 30), (4, 10)):
        rng = random.Random(100 + n)
        for s in range(draws):
            truth = random_graph(rng, n)
            p = _covariance_problem(truth, s)
            assert score(truth, p) == edge_penalty(truth, p), (truth, s)
            result = learn(p)
            assert result.optimal_score <= edge_penalty(truth, p), (truth, s)
            for m in result.models:
                breaks_nothing = edge_penalty(m, p) == result.optimal_score
                kinds.add(breaks_nothing)
                if breaks_nothing:
                    assert _regime_separations(m) == _regime_separations(truth), (truth, s, m)
    # Both kinds of optimal model occur (n = 4, s = 7 gives six that break an indep).
    assert kinds == {True, False}


# -- atom lines ------------------------------------------------------------------


def test_atom_line_layout():
    g = MixedGraph(3, arrows=[(1, 2)], lines=[(2, 3), (1, 2)])
    assert atom_line(g) == "line(1,2) line(2,3) arrow(1,2)"
    assert atom_line(MixedGraph(2)) == ""
    assert parse_atom_line("", 2) == MixedGraph(2)


def test_atom_line_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.choice((2, 3, 4, 5)), biarrow_ok=True)
        assert parse_atom_line(atom_line(g), g.n) == g


def test_parse_atom_line_rejects_garbage():
    with pytest.raises(ParseError):
        parse_atom_line("edge(1,2)", 3)
    with pytest.raises(ParseError):
        parse_atom_line("arrow(1,2) squiggle", 3)


def test_parse_atom_line_rejects_overlong_integers():
    with pytest.raises(ParseError) as err:
        parse_atom_line(f"arrow({'1' * 5000},2)", 3)
    assert str(err.value) == "integer of 5000 digits is too long"


# -- constraint files ------------------------------------------------------------


def test_parse_constraints_full_grammar():
    p = parse_constraints(
        "# comment\n"
        "nodes 4\n"
        "dep 1 2 {} 0 1\n"
        "indep 2 3 {1,4} 2 5  # inline comment\n"
        "order 1 2 3 4\n"
        "forbid arrow 2 1\n"
        "require line 3 4\n")
    assert p.n == 4
    assert p.constraints == (
        Constraint("dep", 1, 2),
        Constraint("indep", 2, 3, {1, 4}, regime=2, weight=5),
    )
    assert p.ordering == (1, 2, 3, 4)
    assert p.forbidden == {("arrow", 2, 1)}
    assert p.required == {("line", 3, 4)}


def test_parse_constraints_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_constraints("dep 1 2 {} 0 1")
    with pytest.raises(ParseError, match="line 2"):
        parse_constraints("nodes 3\ndep 1 2 0 1")
    with pytest.raises(ParseError, match="line 2"):
        parse_constraints("nodes 3\ndep 1 2 [3] 0 1")
    with pytest.raises(ParseError, match="line 3"):
        parse_constraints("nodes 3\n\nindep 1 2 {} 0 1.5")
    with pytest.raises(ParseError, match="line 2"):
        parse_constraints("nodes 3\nnodes 3")
    with pytest.raises(ParseError, match="line 2"):
        parse_constraints("nodes 3\nloop 1 2")
    with pytest.raises(ParseError):
        parse_constraints("")


# -- ASP export ------------------------------------------------------------------


def test_export_asp_facts():
    text = export_asp(OBS)
    assert "nodes(3)." in text
    assert "set(0..7)." in text
    assert "dep(1,2,0,0,1)." in text
    assert "dep(1,2,4,0,1)." in text  # conditioning {3} encoded as bit index 4
    assert ":- dep(X,Y,C,I,W), not con(X,Y,C,I)." in text
    assert ":~ line(X,Y,0), X < Y. [1,X,Y,1]" in text
    assert "biarrow" not in text


def test_export_asp_regime_atoms():
    text = export_asp(FULL)
    assert "dep(1,2,0,3,1)." in text
    assert "indep(2,3,0,3,1)." in text
    assert "indep(1,3,2,3,1)." in text  # conditioning {2} encoded as bit index 2


def test_export_asp_dialect_blocks():
    orig = export_asp(replace(OBS, dialects=(Dialect.ORIGINAL,)))
    assert "{ biarrow(X,Y,0) }" in orig
    assert ":- line(X,Y,0).\n" in orig

    both = export_asp(replace(
        OBS, dialects=(Dialect.ALTERNATIVE, Dialect.ORIGINAL)))
    assert "{ biarrow(X,Y,0) }" in both
    assert ":- line(X,Y,0).\n" not in both
    assert ":- biarrow(X,Y,0), line(Z,W,0)." in both


def test_export_asp_priors_and_penalties():
    p = replace(OBS, ordering=(1, 2, 3),
                forbidden=frozenset({("arrow", 1, 2)}),
                required=frozenset({("line", 1, 3)}),
                line_penalty=2)
    text = export_asp(p)
    assert ":- arrow(2,1,0).\n" in text
    assert ":- arrow(3,1,0).\n" in text
    assert ":- arrow(3,2,0).\n" in text
    assert ":- arrow(1,2,0).\n" in text
    assert ":- not line(1,3,0).\n" in text
    assert ":~ line(X,Y,0), X < Y. [2,X,Y,1]" in text


def test_export_asp_byte_stable():
    assert export_asp(FULL) == export_asp(FULL)
