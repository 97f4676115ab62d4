import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ampadmg import (
    CiStatement,
    Dialect,
    MalformedQueryError,
    MixedGraph,
    NodeNotInSetError,
    NotAnAmpCgError,
    SeparationQuery,
    UnsupportedDialectError,
    amp_statements,
    augmented_graph,
    enumerate_graphs,
    extended_subgraph,
    gaussian_oracle,
    implied_covariance,
    intervene,
    markov_blanket,
    ordered_local_statements,
    ordered_pairwise_statements,
    parse,
    random_sem,
    separated,
    separation_oracle,
    set_index,
    verify_statements,
)
from ampadmg import docalc, markov
from ampadmg.errors import ProblemTooLargeError
from ampadmg.graph import MAX_GRAPH_NODES
from ampadmg.markov import MAX_BLOCK_COMPONENT
from conftest import DATA, random_graph, singleton_queries


# -- statements ----------------------------------------------------------------


def test_statement_validation():
    CiStatement({1}, {2}, {3})
    with pytest.raises(MalformedQueryError):
        CiStatement(frozenset(), {2}, frozenset())
    with pytest.raises(MalformedQueryError):
        CiStatement({1}, {2}, {1})


@st.composite
def _disjoint_sets(draw):
    # Each of nodes 1..n lands in x, y, z or none of them.
    n = draw(st.integers(2, 9))
    roles = draw(st.lists(st.sampled_from("xyz-"), min_size=n, max_size=n)
                 .filter(lambda r: "x" in r and "y" in r))
    return tuple(frozenset(v for v, r in enumerate(roles, 1) if r == k) for k in "xyz")


@settings(max_examples=200, deadline=None)
@given(_disjoint_sets(), st.integers(0, 9))
def test_mask_built_queries_equal_set_built_ones(sets, regime):
    x, y, z = sets
    masks = [set_index(s) for s in sets]
    for built, public in ((SeparationQuery._from_masks(*masks), SeparationQuery(x, y, z)),
                          (CiStatement._from_masks(*masks, regime=regime),
                           CiStatement(x, y, z, regime))):
        assert built == public and hash(built) == hash(public)
        assert (built.x, built.y, built.z) == (public.x, public.y, public.z) == sets


def test_queries_naming_nodes_out_of_range_compare_their_sets():
    # Each such set has the mask -1, so equality and hashing read the sets.
    for a, b in ((SeparationQuery({1}, {0}), SeparationQuery({1}, {-5, 7})),
                 (SeparationQuery({1}, {MAX_GRAPH_NODES + 1}),
                  SeparationQuery({1}, {MAX_GRAPH_NODES + 2})),
                 (CiStatement({5}, {0, 2}, {-1}, 3), CiStatement({5}, {0, 3}, {-7}, 3))):
        assert a != b and len({a, b}) == 2
    # Equal sets still compare equal and hash alike, and the regime counts.
    q = CiStatement({5}, {0, 2}, {-1}, 3)
    twin = CiStatement({5}, {2, 0}, {-1}, 3)
    assert q == twin and hash(q) == hash(twin) and len({q, twin}) == 1
    assert q != CiStatement({5}, {0, 2}, {-1}, 4)


def test_verified_statements_build_no_node_set_views():
    # Generators, _finish and the separation oracle work on masks only, so
    # no statement may have built its x, y or z frozenset.
    for name, generate in (
            ("mixed6.g", ordered_local_statements),
            ("amp-chain.g", lambda g: amp_statements(g, "block-recursive")
             + amp_statements(g, "local") + amp_statements(g, "pairwise"))):
        g = parse((DATA / name).read_text())
        stmts = generate(g)
        assert stmts and not verify_statements(stmts, separation_oracle(g))
        for s in stmts:
            assert not {"x", "y", "z"} & s.__dict__.keys(), s


# -- Markov blankets -------------------------------------------------------------


def test_blanket_parent_only():
    g = MixedGraph(2, arrows={(1, 2)})
    assert markov_blanket(g, {1, 2}, 2) == {1}


def test_blanket_collects_children_neighbours_parents(double_edge3):
    assert markov_blanket(double_edge3, {1, 2, 3}, 2) == {1, 3}


def test_blanket_of_isolated_node():
    g = MixedGraph(3)
    assert markov_blanket(g, {1, 2, 3}, 1) == frozenset()


def test_blanket_requires_membership(double_edge3):
    with pytest.raises(NodeNotInSetError):
        markov_blanket(double_edge3, {1, 2}, 3)


def _augmented_reference(g):
    # The joining rules of augmented_graph, over edge sets: adjacency,
    # A -> C <- B or A -> C - B, and A -> C - D <- B.
    def arrow(a, c):
        return (a, c) in g.arrows

    def line(a, c):
        return (min(a, c), max(a, c)) in g.lines

    def joined(a, b):
        nodes = range(1, g.n + 1)
        return (arrow(a, b) or arrow(b, a) or line(a, b)
                or any((arrow(a, c) or line(a, c)) and (arrow(b, c) or line(b, c))
                       and (arrow(a, c) or arrow(b, c)) for c in nodes)
                or any(arrow(a, c) and line(c, d) and arrow(b, d)
                       for c in nodes for d in nodes))
    return {(a, b) for a, b in combinations(range(1, g.n + 1), 2) if joined(a, b)}


def test_blanket_covers_augmented_neighbours():
    # The augmented graph of each extended subgraph, and each blanket, is
    # exactly what the joining rules give on edge sets: every alternative
    # graph with n <= 3 and every target set, then a seeded sample at n = 4..7.
    rng = random.Random(29)
    cases = [(g, {v for v in range(1, n + 1) if m >> (v - 1) & 1})
             for n in (1, 2, 3) for g in enumerate_graphs(n, Dialect.ALTERNATIVE)
             for m in range(1, 1 << n)]
    for n in (4, 5, 6, 7):
        for _ in range(30):
            g = random_graph(rng, n)
            cases += [(g, set(rng.sample(range(1, n + 1), rng.randint(1, n))))
                      for _ in range(8)]
    for g, s in cases:
        ext = extended_subgraph(g, s)
        want = _augmented_reference(ext)
        assert augmented_graph(ext).lines == want, (g, s)
        for b in s:
            assert markov_blanket(g, s, b) == {v for pair in want if b in pair
                                               for v in pair if v != b}, (g, s, b)


# -- ordered generators -----------------------------------------------------------


def test_ordered_local_single_arrow():
    g = MixedGraph(2, arrows={(1, 2)})
    assert ordered_local_statements(g) == ()


def test_ordered_local_edgeless_pair():
    g = MixedGraph(2)
    stmts = ordered_local_statements(g)
    assert stmts == (CiStatement({1}, {2}, frozenset()),)


def test_ordered_pairwise_edgeless_pair():
    g = MixedGraph(2)
    stmts = ordered_pairwise_statements(g)
    assert stmts == (CiStatement({1}, {2}, frozenset()),)


def test_ordered_pairwise_collider():
    g = MixedGraph(3, arrows={(1, 3), (2, 3)})
    stmts = ordered_pairwise_statements(g)
    assert stmts == (CiStatement({1}, {2}, frozenset()),)


def test_ordered_generators_refuse_biarrows():
    g = MixedGraph(2, biarrows={(1, 2)})
    for generate in (ordered_local_statements, ordered_pairwise_statements):
        with pytest.raises(UnsupportedDialectError):
            generate(g)


def test_ordered_statements_are_separations():
    rng = random.Random(31)
    for _ in range(80):
        g = random_graph(rng, 4)
        oracle = separation_oracle(g)
        for stmts in (ordered_local_statements(g),
                      ordered_pairwise_statements(g)):
            assert verify_statements(stmts, oracle) == ()


# -- every generator at once ---------------------------------------------------------

# The statement masks of all five generators over the inputs below (the
# ordered families on the alternative ones only); a change to any
# generator's output must change this digest on purpose.
GENERATORS_SHA256 = "94458a994de2776d58ee1bcbf6b279e6fe2bde60290f4fba44232658bee3fa14"


def _generator_inputs():
    # Every graph with n <= 3 in both dialects; then, at n = 4..6, sixteen
    # seeded graphs of either dialect and the first eight seeded chain graphs.
    for n in (1, 2, 3):
        for dialect in Dialect:
            yield from enumerate_graphs(n, dialect)
    rng = random.Random(53)
    for n in (4, 5, 6):
        for _ in range(16):
            yield random_graph(rng, n, biarrow_ok=True)
        chains = 0
        while chains < 8:
            g = random_graph(rng, n)
            if g.is_amp_cg():
                chains += 1
                yield g


def test_generator_output_is_pinned():
    digest, count = hashlib.sha256(), 0
    for g in _generator_inputs():
        families = []
        if g.dialect is Dialect.ALTERNATIVE:  # the ordered families refuse biarrows
            families += [ordered_local_statements(g), ordered_pairwise_statements(g)]
        if g.is_amp_cg():
            families += [amp_statements(g, f) for f in ("block-recursive", "local", "pairwise")]
        for stmts in families:
            count += len(stmts)
            digest.update(b"|" + ";".join(f"{s.xm},{s.ym},{s.zm}" for s in stmts).encode())
    assert count > 3000
    assert digest.hexdigest() == GENERATORS_SHA256, (count, digest.hexdigest())


# -- chain graph generators --------------------------------------------------------


def test_amp_local_line_chain():
    g = MixedGraph(3, lines={(1, 2), (2, 3)})
    stmts = amp_statements(g, "local")
    assert CiStatement({1}, {3}, {2}) in stmts


def test_amp_block_recursive_small_cases():
    assert amp_statements(MixedGraph(2, arrows={(1, 2)}), "block-recursive") == ()
    stmts = amp_statements(MixedGraph(2), "block-recursive")
    assert stmts == (CiStatement({1}, {2}, frozenset()),)


def test_amp_rejects_non_chain_graph(double_edge3, ident_alt):
    with pytest.raises(NotAnAmpCgError):
        amp_statements(double_edge3, "local")
    with pytest.raises(NotAnAmpCgError):
        amp_statements(ident_alt, "pairwise")


def test_amp_rejects_unknown_flavour():
    with pytest.raises(ValueError):
        amp_statements(MixedGraph(2), "global")


def _line_path(n: int) -> MixedGraph:
    return MixedGraph(n, lines={(i, i + 1) for i in range(1, n)})


def test_amp_block_refuses_a_line_component_past_its_cap(monkeypatch):
    # The block-recursive walk is about 4^k over a k-node component, so a
    # component past the cap is refused before any statement is built.
    walked = []
    monkeypatch.setattr(markov, "_block_recursive", lambda g, cm, ndm: walked.append(cm) or ())
    big = _line_path(MAX_BLOCK_COMPONENT + 1)
    with pytest.raises(ProblemTooLargeError, match=f"a line component of "
                       f"{MAX_BLOCK_COMPONENT + 1} nodes exceeds the block-recursive "
                       f"cap of {MAX_BLOCK_COMPONENT}$"):
        amp_statements(big, "block-recursive")
    assert walked == []
    # At the cap, and beside other components, the walk still runs.
    g = MixedGraph(MAX_BLOCK_COMPONENT + 2, arrows={(1, 3)},
                   lines={(i, i + 1) for i in range(3, MAX_BLOCK_COMPONENT + 2)})
    assert amp_statements(g, "block-recursive") == ()
    assert [cm.bit_count() for cm in walked] == [1, 1, MAX_BLOCK_COMPONENT]
    # The local and pairwise flavours have no such cap.
    far = set(range(3, big.n + 1))
    assert CiStatement({1}, far, {2}) in amp_statements(big, "local")
    assert CiStatement({1}, {3}, {2} | far - {3}) in amp_statements(big, "pairwise")


def test_amp_statements_are_separations():
    rng = random.Random(37)
    done = 0
    while done < 60:
        g = random_graph(rng, 4)
        if not g.is_amp_cg():
            continue
        done += 1
        oracle = separation_oracle(g)
        for flavour in ("block-recursive", "local", "pairwise"):
            assert verify_statements(amp_statements(g, flavour), oracle) == ()


def test_amp_statements_sorted_and_unique():
    rng = random.Random(39)
    done = 0
    while done < 40:
        g = random_graph(rng, 4)
        if not g.is_amp_cg():
            continue
        done += 1
        for flavour in ("block-recursive", "local", "pairwise"):
            stmts = amp_statements(g, flavour)
            # Each statement holds its side with the lower node first.
            keys = [tuple(tuple(sorted(v)) for v in (s.x, s.y, s.z)) for s in stmts]
            assert keys == sorted(set(keys))
            assert all(x[0] < y[0] for x, y, _z in keys)


# -- what the statements imply ------------------------------------------------------
#
# A semigraphoid is fixed by its elementary triples a ⊥ b | C: X ⊥ Y | Z holds
# iff a ⊥ b | C does for every a in X, b in Y and Z ⊆ C ⊆ (X + Y + Z) - {a, b}.
# A set of triples is the trace of a semigraphoid iff it is closed under
#   a⊥b|C ∧ a⊥c|Cb ⇒ a⊥c|C ∧ a⊥b|Cc,
# and of a graphoid iff it is also closed under intersection,
#   a⊥b|Cc ∧ a⊥c|Cb ⇒ a⊥b|C ∧ a⊥c|C.
# The helpers below work on plain sets and share no code with the package.


def _triple(a, b, c):
    return (min(a, b), max(a, b), frozenset(c))


def _elementary(stmts):
    # The triples each statement implies by decomposition and weak union.
    out = set()
    for s in stmts:
        for a in s.x:
            for b in s.y:
                free = sorted((s.x | s.y) - {a, b})
                for k in range(len(free) + 1):
                    for extra in combinations(free, k):
                        out.add(_triple(a, b, s.z | set(extra)))
    return out


def _closure(triples, nodes, graphoid):
    known, todo = set(), []

    def add(a, b, c):
        t = _triple(a, b, c)
        if t not in known:
            known.add(t)
            todo.append(t)

    for t in triples:
        add(*t)
    while todo:
        u, v, cond = todo.pop()
        for a, b in ((u, v), (v, u)):
            # As the first premise a⊥b|C, with c outside C + {a, b}.
            for c in nodes - cond - {a, b}:
                if _triple(a, c, cond | {b}) in known:
                    add(a, c, cond)
                    add(a, b, cond | {c})
            for c in cond:
                rest = cond - {c}
                # As the second premise, this c in the rule's b role: with
                # a⊥c|rest it gives a⊥b|rest and a⊥c|rest + b.
                if _triple(a, c, rest) in known:
                    add(a, b, rest)
                    add(a, c, rest | {b})
                # As either premise of intersection, a⊥b|Cc with a⊥c|Cb.
                if graphoid and _triple(a, c, rest | {b}) in known:
                    add(a, b, rest)
                    add(a, c, rest)
    return known


def _separations(g):
    return {_triple(x, y, z) for x, y, z in singleton_queries(g.n)
            if separated(g, SeparationQuery({x}, {y}, z))}


def _chain_graphs():
    # Every chain graph with n <= 3, then seeded ones with n = 4 and 5.
    for n in (1, 2, 3):
        yield from (g for g in enumerate_graphs(n, Dialect.ALTERNATIVE) if g.is_amp_cg())
    rng = random.Random(59)
    for n, want in ((4, 60), (5, 40)):
        while want:
            g = random_graph(rng, n)
            if g.is_amp_cg():
                want -= 1
                yield g


def test_closure_of_triples_follows_the_rules():
    nodes = {1, 2, 3}
    # 1 ⊥ 2 | ∅ and 1 ⊥ 3 | 2 give 1 ⊥ 3 | ∅ and 1 ⊥ 2 | 3 by the semigraphoid rule.
    assert _closure({_triple(1, 2, ()), _triple(1, 3, {2})}, nodes, False) == {
        _triple(1, 2, ()), _triple(1, 3, {2}), _triple(1, 3, ()), _triple(1, 2, {3})}
    # 1 ⊥ 2 | 3 and 1 ⊥ 3 | 2 give more only by intersection.
    pair = {_triple(1, 2, {3}), _triple(1, 3, {2})}
    assert _closure(pair, nodes, False) == pair
    assert _closure(pair, nodes, True) == pair | {_triple(1, 2, ()), _triple(1, 3, ())}
    assert _elementary([CiStatement({1}, {2, 3}, frozenset())]) == {
        _triple(1, 2, ()), _triple(1, 3, ()), _triple(1, 2, {3}), _triple(1, 3, {2})}


def test_chain_graph_families_imply_the_global_property():
    rules = {"block-recursive": False, "local": False, "pairwise": True}
    graphs = 0
    for g in _chain_graphs():
        graphs += 1
        want = _separations(g)
        for flavour, graphoid in rules.items():
            got = _closure(_elementary(amp_statements(g, flavour)),
                           set(range(1, g.n + 1)), graphoid)
            assert got == want, (g, flavour, sorted(want - got, key=str))
    assert graphs > 100


# -- oracles -----------------------------------------------------------------------


def test_verify_statements_empty():
    assert verify_statements((), lambda s: False) == ()


def test_separation_oracle_uses_regime_graphs():
    g = MixedGraph(2, arrows={(1, 2)})
    oracle = separation_oracle(g)
    assert not oracle(CiStatement({1}, {2}, frozenset()))
    # cutting node 2 removes the incoming arrow, making the pair independent
    assert oracle(CiStatement({1}, {2}, frozenset(), regime=2))
    assert intervene(g, [2]).arrows == frozenset()


def test_separation_oracle_shares_one_graph_per_regime(mixed6, monkeypatch):
    cuts = []

    def counted(g, x):
        cuts.append(intervene(g, x))
        return cuts[-1]

    monkeypatch.setattr(docalc, "intervene", counted)
    oracle = separation_oracle(mixed6, 4)
    for regime in (2, 5):
        for a in (1, 2, 3):
            for b in (4, 5, 6):
                oracle(CiStatement({a}, {b}, {2, 3} - {a}, regime=regime))
    assert cuts == [intervene(mixed6, [2]), intervene(mixed6, [5])]
    assert all(cut._moral_cache for cut in cuts)
    assert "_moral_cache" not in mixed6.__dict__


def test_gaussian_oracle_matches_graph_oracle():
    rng = random.Random(43)
    for _ in range(30):
        g = random_graph(rng, 4)
        sigma = implied_covariance(random_sem(g, rng.randint(0, 10**6)))
        gauss = gaussian_oracle(sigma)
        graph = separation_oracle(g)
        for s in ordered_local_statements(g):
            assert graph(s)
            assert gauss(s)


def test_gaussian_oracle_refuses_a_bad_tol_when_built():
    # A NaN or negative tol would read "dependent" off an independent pair.
    sigma = [[1, .5, 0], [.5, 1, 0], [0, 0, 1]]
    for tol in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ValueError, match="tol must be non-negative and finite"):
            gaussian_oracle(sigma, tol=tol)
    gaussian_oracle(sigma, tol=0.0)
    assert gaussian_oracle(sigma)(CiStatement({1}, {3}))


def test_gaussian_oracle_rejects_interventional_statements():
    sigma = implied_covariance(random_sem(MixedGraph(2, arrows={(1, 2)}), 1))
    oracle = gaussian_oracle(sigma)
    with pytest.raises(ValueError):
        oracle(CiStatement({1}, {2}, frozenset(), regime=1))
