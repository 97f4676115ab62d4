import random

import numpy as np
import pytest

from ampadmg import (
    Dialect,
    ErrorNodeInZError,
    LinearSem,
    MixedGraph,
    NodeOutOfRangeError,
    SeparationQuery,
    SingularSubmatrixError,
    UnsupportedDialectError,
    ci_test,
    determined_closure,
    enumerate_graphs,
    implied_covariance,
    magnify,
    random_sem,
    separated,
    separated_with_determinism,
)
from ampadmg.graph import _bits
from ampadmg.sem import CI_TOL, _ci_tests
from conftest import random_graph, singleton_queries


# -- magnification ------------------------------------------------------------


def test_magnify_moves_lines_to_noise_pairs(mixed6):
    big = magnify(mixed6)
    assert big.n == 12
    assert big.arrows == (mixed6.arrows
                          | {(7, 1), (8, 2), (9, 3), (10, 4), (11, 5), (12, 6)})
    assert big.lines == {(9, 10), (9, 11), (10, 12), (11, 12)}
    assert big.node_names == ("A", "B", "C", "D", "E", "F",
                              "eps_A", "eps_B", "eps_C", "eps_D",
                              "eps_E", "eps_F")


def test_magnify_smallest_cases():
    assert magnify(MixedGraph(1)).arrows == {(2, 1)}
    two = magnify(MixedGraph(2, lines={(1, 2)}))
    assert two.arrows == {(3, 1), (4, 2)}
    assert two.lines == {(3, 4)}


def test_magnify_rejects_biarrows(ident_orig):
    with pytest.raises(UnsupportedDialectError):
        magnify(ident_orig)


# -- determination ------------------------------------------------------------


def test_closure_of_empty_set():
    big = magnify(MixedGraph(2, arrows={(1, 2)}))
    assert determined_closure(big, frozenset()) == frozenset()


def test_closure_determines_noise_of_fully_observed_nodes():
    big = magnify(MixedGraph(2, arrows={(1, 2)}))
    # eps_1 = node 1 itself (no other parents); eps_2 is fixed by 2 and 1.
    assert determined_closure(big, {1, 2}) == {1, 2, 3, 4}
    assert determined_closure(big, {2}) == {2}


def test_closure_on_single_line():
    big = magnify(MixedGraph(2, lines={(1, 2)}))
    assert determined_closure(big, {1}) == {1, 3}


def test_closure_is_extensive_and_monotone():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, 4)
        big = magnify(g)
        small = frozenset(rng.sample(range(1, 5), rng.randint(0, 3)))
        extra = small | {rng.randint(1, 4)}
        dt_small = determined_closure(big, small)
        dt_extra = determined_closure(big, extra)
        assert small <= dt_small
        assert dt_small <= dt_extra


def _reference_closure(gp, z):
    # Both rules of the definition, run to a fixpoint on node sets: a
    # variable is determined once all its parents are, a noise node once its
    # variable and the variable's other parents are.
    m = gp.n // 2
    parents = {a: gp.parents([a]) for a in range(1, m + 1)}
    dt = set(z)
    while True:
        new = {a for a in parents if parents[a] <= dt}
        new |= {m + a for a in parents if a in dt and parents[a] - {m + a} <= dt}
        if new <= dt:
            return dt
        dt |= new


def test_closure_adds_only_noise_nodes_and_matches_both_rules():
    rng = random.Random(17)
    graphs = [g for n in (1, 2, 3) for g in enumerate_graphs(n, Dialect.ALTERNATIVE)]
    graphs += [random_graph(rng, 4) for _ in range(200)]
    for g in graphs:
        big = magnify(g)
        for zm in range(1 << g.n):
            z = {a for a in range(1, g.n + 1) if zm >> (a - 1) & 1}
            dt = determined_closure(big, z)
            assert dt & set(range(1, g.n + 1)) == z, (g, z)
            assert dt == _reference_closure(big, z), (g, z)


def test_closure_runs_to_a_fixpoint():
    # Noise node 4 is a parent of variable 1 as well as of variable 2, so
    # noise node 3 is determined only in the round after 4 is.
    big = MixedGraph(4, arrows={(3, 1), (4, 2), (4, 1)})
    assert determined_closure(big, {1, 2}) == {1, 2, 3, 4}
    assert _reference_closure(big, {1, 2}) == {1, 2, 3, 4}


def test_closure_rejects_noise_nodes_in_z():
    big = magnify(MixedGraph(2, arrows={(1, 2)}))
    with pytest.raises(ErrorNodeInZError):
        determined_closure(big, {3})
    with pytest.raises(ErrorNodeInZError):
        separated_with_determinism(big, SeparationQuery({1}, {2}, {3}))


def test_closure_rejects_non_magnified_graph():
    for g, why in ((MixedGraph(2, arrows={(1, 2)}), "missing noise arrow into 1"),
                   (MixedGraph(3, arrows={(2, 1)}), "odd node count")):
        with pytest.raises(ValueError, match=f"^not a magnified graph: {why}$"):
            determined_closure(g, {1})
        with pytest.raises(ValueError, match=f"^not a magnified graph: {why}$"):
            separated_with_determinism(g, SeparationQuery({1}, {2}))


def test_determinism_checks_biarrows_then_range_then_magnification_then_z():
    orig = MixedGraph(3, biarrows={(1, 2)})
    with pytest.raises(UnsupportedDialectError):
        separated_with_determinism(orig, SeparationQuery({1}, {2}, {9}))
    with pytest.raises(NodeOutOfRangeError, match="^node 9 out of range"):
        separated_with_determinism(MixedGraph(3), SeparationQuery({1}, {2}, {9}))
    with pytest.raises(ValueError, match="^not a magnified graph"):
        separated_with_determinism(MixedGraph(3), SeparationQuery({1}, {2}, {3}))


def test_magnified_graph_represents_same_separations():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 4))
        big = magnify(g)
        for x, y, z in singleton_queries(g.n):
            q = SeparationQuery({x}, {y}, z)
            assert (separated(g, q, criterion=1)
                    == separated_with_determinism(big, q)), (g, x, y, z)


# -- linear models --------------------------------------------------------------


def test_implied_covariance_hand_cases():
    single = LinearSem(MixedGraph(1), {}, np.eye(1))
    assert np.allclose(implied_covariance(single), [[1.0]])
    arrow = LinearSem(MixedGraph(2, arrows={(1, 2)}), {(1, 2): 1.0}, np.eye(2))
    assert np.allclose(implied_covariance(arrow), [[1.0, 1.0], [1.0, 2.0]])


def test_sem_validation():
    g = MixedGraph(2, arrows={(1, 2)})
    with pytest.raises(ValueError):
        LinearSem(g, {}, np.eye(2))  # missing coefficient
    with pytest.raises(ValueError):
        LinearSem(g, {(1, 2): 1.0, (2, 1): 1.0}, np.eye(2))
    with pytest.raises(ValueError):
        LinearSem(g, {(1, 2): 1.0}, np.eye(3))
    with pytest.raises(ValueError):
        LinearSem(g, {(1, 2): 1.0}, np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        LinearSem(g, {(1, 2): 1.0}, -np.eye(2))


def test_noise_precision_must_vanish_off_lines():
    g = MixedGraph(2, arrows={(1, 2)})
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        LinearSem(g, {(1, 2): 1.0}, cov)
    # the same covariance is fine once the pair carries a line
    lined = MixedGraph(2, arrows={(1, 2)}, lines={(1, 2)})
    LinearSem(lined, {(1, 2): 1.0}, cov)


def test_random_sem_is_deterministic_and_valid():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, 5)
        seed = rng.randint(0, 10**6)
        sem1 = random_sem(g, seed)
        sem2 = random_sem(g, seed)
        assert sem1.beta == sem2.beta
        assert np.array_equal(sem1.noise_cov, sem2.noise_cov)
        np.linalg.cholesky(sem1.noise_cov)
        precision = np.linalg.inv(sem1.noise_cov)
        for a in range(1, 6):
            for b in range(a + 1, 6):
                if (a, b) not in g.lines:
                    assert abs(precision[a - 1, b - 1]) < 1e-9
        sigma = implied_covariance(sem1)
        assert np.allclose(sigma, sigma.T)
        np.linalg.cholesky(sigma)


def test_random_sem_rejects_biarrows(ident_orig):
    with pytest.raises(UnsupportedDialectError):
        random_sem(ident_orig, 0)


def test_implied_covariance_matches_sampling():
    # Generative oracle: simulate the structural equations directly and
    # compare the empirical covariance of the draws.
    g = MixedGraph(4, arrows={(1, 2), (2, 4), (3, 4)}, lines={(1, 3)})
    sem = random_sem(g, 23)
    rng = np.random.default_rng(99)
    draws = 200_000
    eps = rng.multivariate_normal(np.zeros(4), sem.noise_cov, size=draws)
    data = np.zeros_like(eps)
    for v in g.consistent_ordering():
        data[:, v - 1] = eps[:, v - 1]
        for (t, h), beta in sem.beta.items():
            if h == v:
                data[:, v - 1] += beta * data[:, t - 1]
    empirical = np.cov(data, rowvar=False)
    assert np.allclose(empirical, implied_covariance(sem), atol=0.05)


# -- conditional independence test ----------------------------------------------


def test_ci_test_hand_cases():
    assert ci_test(np.eye(2), 1, 2, frozenset())
    sigma = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert not ci_test(sigma, 1, 2, frozenset())


def test_ci_test_chain_blocks():
    chain = MixedGraph(3, arrows={(1, 2), (2, 3)})
    sigma = implied_covariance(random_sem(chain, 5))
    assert ci_test(sigma, 1, 3, {2})
    assert not ci_test(sigma, 1, 3, frozenset())


def _reference_pcorr(sigma, x, y, z) -> float:
    # |partial correlation| by the plain numpy formula.
    idx = [x - 1, y - 1] + [i - 1 for i in sorted(z)]
    prec = np.linalg.inv(sigma[np.ix_(idx, idx)])
    return float(abs(-prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1])))


def test_ci_test_partial_correlation_is_bit_exact():
    # ci_test must reproduce the reference |pcorr| to the last bit: False at
    # tol = |pcorr|, True one ulp above.
    rng = random.Random(31)
    for n in (5, 6, 7):
        for _ in range(3):
            g = random_graph(rng, n)
            sigma = implied_covariance(random_sem(g, rng.randint(0, 10**6)))
            for x, y, z in singleton_queries(n):
                ref = _reference_pcorr(sigma, x, y, z)
                assert not ci_test(sigma, x, y, z, tol=ref), (g, x, y, z)
                assert ci_test(sigma, x, y, z, tol=np.nextafter(ref, np.inf)), (g, x, y, z)


def test_stacked_ci_tests_match_ci_test():
    # Every separated singleton query of seeded n = 6-9 graphs, one
    # _ci_tests call per graph and tol mixing every pair, at tolerances
    # where both verdicts occur, against the reference |pcorr| computed one
    # matrix at a time.
    rng = random.Random(32)
    seen = set()
    for n in (6, 7, 8, 9):
        for _ in range(5):
            g = random_graph(rng, n)
            sigma = implied_covariance(random_sem(g, rng.randint(0, 10**6)))
            tests = [(x, y, g.node_mask(z)) for x, y, z in singleton_queries(n)
                     if separated(g, SeparationQuery({x}, {y}, z))]
            refs = [_reference_pcorr(sigma, x, y, _bits(zm)) for x, y, zm in tests]
            for tol in (0, 1e-7, 0.05, 0.5, 1.0):
                stacked = _ci_tests(sigma, tests, tol)
                assert stacked == [ref < tol for ref in refs], (g, tol)
                seen.update(stacked)
    assert seen == {False, True}


def test_a_mixed_batch_reads_each_partial_correlation_bit_exactly():
    # The batch form of test_ci_test_partial_correlation_is_bit_exact: one
    # _ci_tests call holds every separated test of a seeded graph, across
    # all pairs and sizes of z, and still reads test k's |pcorr| to the last
    # bit: False at tol = |pcorr|, True one ulp above.
    rng = random.Random(33)
    for n in (6, 7, 8, 9):
        g = random_graph(rng, n)
        sigma = implied_covariance(random_sem(g, rng.randint(0, 10**6)))
        tests = [(x, y, g.node_mask(z)) for x, y, z in singleton_queries(n)
                 if separated(g, SeparationQuery({x}, {y}, z))]
        pairs, sizes = {(x, y) for x, y, _ in tests}, {zm.bit_count() for *_, zm in tests}
        assert len(pairs) > 1 and len(sizes) > 1, g
        for k in sorted(rng.sample(range(len(tests)), min(len(tests), 12))):
            x, y, zm = tests[k]
            ref = _reference_pcorr(sigma, x, y, _bits(zm))
            assert not _ci_tests(sigma, tests, ref)[k], (g, tests[k])
            assert _ci_tests(sigma, tests, np.nextafter(ref, np.inf))[k], (g, tests[k])


def test_ci_test_validation():
    sigma = np.eye(3)
    # Matched by message: a singular submatrix is a ValueError too, and
    # ci_test(sigma, 1, 2, {2}) would raise one without its own check.
    with pytest.raises(ValueError, match="distinct"):
        ci_test(sigma, 1, 1, frozenset())
    with pytest.raises(ValueError, match="distinct"):
        ci_test(sigma, 1, 2, {2})
    with pytest.raises(ValueError):
        ci_test(sigma, 0, 2, frozenset())
    # A NaN or negative tol would read "dependent" off an independent pair;
    # 0 is kept, as the CLI keeps --tol 0.
    sigma = [[1, .5, 0], [.5, 1, 0], [0, 0, 1]]
    for tol in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ValueError, match="tol must be non-negative and finite"):
            ci_test(sigma, 1, 3, [], tol=tol)
    assert ci_test(sigma, 1, 3, [], tol=1e-12)
    assert not ci_test(sigma, 1, 2, [], tol=0)


@pytest.mark.parametrize("shape", [(), (3,), (3, 2), (2, 3), (2, 2, 2)])
def test_ci_test_refuses_a_sigma_that_is_not_a_square_matrix(shape):
    # Refused by its shape, not by numpy's indexing nor as a singular submatrix.
    with pytest.raises(ValueError, match=r"^sigma must be a square 2-D matrix, got shape \("):
        ci_test(np.ones(shape), 1, 2, [])


def test_ci_test_singular_matrix():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSubmatrixError):
        ci_test(sigma, 1, 2, frozenset())
    # Invertible, but not a covariance: the pair's precision has a negative
    # diagonal entry.
    with pytest.raises(SingularSubmatrixError,
                       match=r"^covariance submatrix for 1,2\|\[\] is not positive definite$"):
        ci_test(np.diag([1.0, -1.0, 1.0]), 1, 2, [])


def test_a_singular_stack_names_its_first_singular_set():
    # Node 5 copies node 4, so every submatrix holding both is singular; the
    # stack of sets of size 2 is inverted again one matrix at a time.
    sigma = np.eye(5)
    sigma[:, 4] = sigma[:, 3]
    sigma[4, :] = sigma[3, :]
    tests = [(1, 2, 0b01100), (2, 3, 0b00001), (1, 2, 0b10100), (1, 3, 0b11000)]
    with pytest.raises(SingularSubmatrixError,
                       match=r"^covariance submatrix for 1,3\|\[4, 5\] is singular$"):
        _ci_tests(sigma, tests, CI_TOL)
    assert _ci_tests(sigma, tests[:3], CI_TOL) == [True, True, True]
    # Invertible, but nodes 2 and 3 covary more than they vary, so every
    # set holding node 3 gives the pair's precision a negative diagonal.
    sigma = np.eye(4)
    sigma[1, 2] = sigma[2, 1] = 2.0
    with pytest.raises(SingularSubmatrixError,
                       match=r"^covariance submatrix for 1,2\|\[3\] is not positive definite$"):
        _ci_tests(sigma, [(1, 2, 0b1000), (1, 2, 0b0100)], CI_TOL)


def test_a_nan_covariance_gets_no_verdict():
    # NaN fails every comparison, so a NaN read as "not below tol" would
    # give a dependence verdict; it is refused as not positive definite.
    off = np.eye(3)
    off[0, 2] = off[2, 0] = np.nan
    diag = np.eye(3)
    diag[2, 2] = np.nan
    for sigma in (off, diag):
        with pytest.raises(SingularSubmatrixError,
                           match=r"^covariance submatrix for 1,2\|\[3\] is not positive definite$"):
            ci_test(sigma, 1, 2, [3])
        assert ci_test(sigma, 1, 2, [])  # this submatrix is finite
    # One stack, and only the second test's submatrix holds the NaN.
    sigma = np.eye(4)
    sigma[1, 3] = sigma[3, 1] = np.nan
    with pytest.raises(SingularSubmatrixError,
                       match=r"^covariance submatrix for 1,2\|\[4\] is not positive definite$"):
        _ci_tests(sigma, [(1, 2, 0b0100), (1, 2, 0b1000)], CI_TOL)
    assert _ci_tests(sigma, [(1, 2, 0b0100), (1, 3, 0b0010)], CI_TOL) == [True, True]
