"""End-to-end gate: one test per headline guarantee of the package.

Each test is self-contained and exhaustive (or seeded) so a single
``pytest tests/test_acceptance.py -v`` run gives one pass/fail line per
guarantee.  Budgets: the heaviest sweep (four-way criterion agreement
over every four-node graph) stays under two minutes on stock hardware.
"""

import random
from dataclasses import replace

from ampadmg import (
    Dialect,
    MixedGraph,
    SeparationQuery,
    amp_statements,
    atom_line,
    ci_test,
    enumerate_graphs,
    gaussian_oracle,
    implied_covariance,
    intervene,
    learn,
    magnify,
    ordered_local_statements,
    ordered_pairwise_statements,
    parse_constraints,
    random_sem,
    regime_graph,
    rule_applicable,
    separated,
    separated_with_determinism,
    separation_oracle,
    verify_statements,
)

from conftest import DATA, random_graph, singleton_queries


def all_queries(n):
    return [SeparationQuery({x}, {y}, z) for x, y, z in singleton_queries(n)]


def test_four_separation_criteria_agree_exhaustively():
    # Every valid line-dialect graph on 3 and 4 nodes, every singleton
    # pair under every conditioning set: one shared verdict.
    for n, expected_graphs in ((3, 200), (4, 34752)):
        qs = all_queries(n)
        count = 0
        for g in enumerate_graphs(n, Dialect.ALTERNATIVE):
            count += 1
            for q in qs:
                verdicts = {separated(g, q, criterion=c) for c in (1, 2, 3, 4)}
                assert len(verdicts) == 1, (g, q)
        assert count == expected_graphs


def test_magnified_graph_with_determinism_matches_path_separation():
    # Moving the lines onto explicit noise nodes changes no verdict once
    # conditioning is closed under functional determination.
    for n in (2, 3, 4):
        qs = all_queries(n)
        for g in enumerate_graphs(n, Dialect.ALTERNATIVE):
            gp = magnify(g)
            for q in qs:
                assert separated(g, q, criterion=1) == \
                    separated_with_determinism(gp, q), (g, q)


def test_implied_covariance_satisfies_every_separation():
    # 100 seeded random graphs up to five nodes: every graphical
    # separation shows partial correlation below 1e-7 in the implied
    # covariance of a random structural model.
    rng = random.Random(20240)
    for trial in range(100):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        sigma = implied_covariance(random_sem(g, seed=trial))
        for x, y, z in singleton_queries(n):
            if separated(g, SeparationQuery({x}, {y}, z), criterion=2):
                assert ci_test(sigma, x, y, z, tol=1e-7), (g, x, y, z, trial)


def test_markov_statement_generators_emit_only_separations():
    # Exhaustive over four nodes: everything the ordered and the
    # chain-graph generators emit is a route separation, and on a
    # deterministic sample the statements also pass the Gaussian oracle.
    checked = gaussian_checked = 0
    for n in (2, 3, 4):
        for i, g in enumerate(enumerate_graphs(n, Dialect.ALTERNATIVE)):
            stmts = ordered_local_statements(g) + ordered_pairwise_statements(g)
            if g.is_amp_cg():
                for flavour in ("block-recursive", "local", "pairwise"):
                    stmts += amp_statements(g, flavour)
            assert not verify_statements(stmts, separation_oracle(g, criterion=2)), g
            checked += len(stmts)
            if i % 97 == 0 and stmts:
                sigma = implied_covariance(random_sem(g, seed=i))
                assert not verify_statements(
                    stmts, gaussian_oracle(sigma, tol=1e-7)), g
                gaussian_checked += 1
    assert checked > 50_000
    assert gaussian_checked > 100


def test_learner_reproduces_golden_model_counts():
    obs = parse_constraints((DATA / "indeps-obs.txt").read_text())
    full = parse_constraints((DATA / "indeps-full.txt").read_text())

    result = learn(obs)
    assert result.optimal_score == 3
    lines = [atom_line(m) for m in result.models]
    assert len(lines) == 37
    assert "line(1,2) line(2,3) arrow(1,2)" in lines
    assert "line(1,2) line(1,3) arrow(2,3)" in lines

    result = learn(full)
    assert result.optimal_score == 3
    assert len(result.models) == 18
    assert all((3, j) not in m.arrows for m in result.models for j in (1, 2))

    result = learn(replace(
        full, dialects=(Dialect.ALTERNATIVE, Dialect.ORIGINAL)))
    assert result.optimal_score == 3
    lines = [atom_line(m) for m in result.models]
    assert len(lines) == 34
    assert "biarrow(1,2) biarrow(1,3) arrow(1,2)" in lines


def test_identification_rule_steps_replay_as_expected():
    alt = MixedGraph(3, arrows={(1, 2)}, lines={(1, 3), (2, 3)},
                     node_names=("A", "B", "C"))
    orig = MixedGraph(3, arrows={(1, 2)},
                      biarrows={(1, 2), (1, 3), (2, 3)},
                      node_names=("A", "B", "C"))
    assert rule_applicable(alt, 3, set(), {3}, {1}, set())
    assert rule_applicable(alt, 2, set(), {2}, {1}, {3})
    assert not rule_applicable(orig, 2, set(), {2}, {1}, {3})


def test_intervention_surgery_examples_and_idempotence():
    g = MixedGraph(3, arrows={(1, 2)}, lines={(1, 3), (2, 3)})
    assert intervene(g, {1}) == MixedGraph(3, arrows={(1, 2)}, lines={(2, 3)})

    rng = random.Random(77)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(2, 6), biarrow_ok=True)
        x = {v for v in range(1, g.n + 1) if rng.random() < 0.4}
        cut = intervene(g, x)
        assert intervene(cut, x) == cut

    for dialect in (Dialect.ALTERNATIVE, Dialect.ORIGINAL):
        for g in enumerate_graphs(4, dialect):
            for i in range(1, 5):
                assert regime_graph(g, i) == intervene(g, {i})
