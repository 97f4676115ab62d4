import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ampadmg import (
    Dialect,
    MalformedQueryError,
    MixedGraph,
    NodeOutOfRangeError,
    ProblemTooLargeError,
    SeparationQuery,
    UnsupportedDialectError,
    augmented_graph,
    connects_route,
    enumerate_graphs,
    extended_subgraph,
    intervene,
    marginal_graph,
    parse,
    separated,
)
from ampadmg import separation
from ampadmg.graph import MAX_GRAPH_NODES, _bits, _submasks
from ampadmg.separation import (MAX_SWEEP_NODES, _moral_masks, _route_connected, _route_lanes,
                                 _separating_masks, _singleton_pairs)
from conftest import (DATA, gf_separated, gf_sigma, load_bench, random_graph,
                      singleton_queries)


# -- brute-force oracles ------------------------------------------------------
#
# Independent re-implementations over explicit edge lists.  The library works
# on bitmask automata; these work on simple-path and bounded-walk enumeration,
# so agreement is meaningful evidence.


def _edges(g):
    return ([(t, h, "arrow") for t, h in g.arrows]
            + [(a, b, "line") for a, b in g.lines]
            + [(a, b, "biarrow") for a, b in g.biarrows])


def _mark_at(edge, v):
    # How the edge reads at endpoint v: the mark a walk carries on arrival.
    a, b, kind = edge
    if kind == "line":
        return "line"
    if kind == "biarrow":
        return "head"
    return "head" if v == b else "tail"


def _is_collider(arrive, depart):
    return "tail" not in (arrive, depart) and not (arrive == depart == "line")


def oracle_ancestors(g, s):
    out = set(s)
    changed = True
    while changed:
        changed = False
        for t, h in g.arrows:
            if h in out and t not in out:
                out.add(t)
                changed = True
    return out


def oracle_path_connected(g, x, y, z):
    """Criterion-1 verdict by exhaustive simple-path enumeration."""
    z = set(z)
    anz = oracle_ancestors(g, z)
    edges = _edges(g)
    parents = {v: {t for t, h in g.arrows if h == v} for v in range(1, g.n + 1)}

    def search(node, arrive, visited):
        for e in edges:
            if node not in (e[0], e[1]):
                continue
            nxt = e[1] if node == e[0] else e[0]
            if nxt in visited:
                continue
            depart = _mark_at(e, node)
            if _is_collider(arrive, depart):
                if node not in anz:
                    continue
            elif node in z and not (arrive == depart == "line"
                                    and parents[node] - z):
                continue
            if nxt in y:
                return True
            if search(nxt, _mark_at(e, nxt), visited | {nxt}):
                return True
        return False

    for s in x:
        for e in edges:
            if s not in (e[0], e[1]):
                continue
            nxt = e[1] if s == e[0] else e[0]
            if nxt in y:
                return True
            if nxt not in x and search(nxt, _mark_at(e, nxt), {s, nxt}):
                return True
    return False


def oracle_route_connected(g, x, y, z, max_edges=None):
    """Criterion-2 verdict by walk enumeration truncated at 2n edges; a
    connecting route always has a witness no longer than that."""
    z = set(z)
    edges = _edges(g)
    limit = max_edges if max_edges is not None else 2 * g.n

    def search(node, arrive, used):
        if used >= limit:
            return False
        for e in edges:
            if node not in (e[0], e[1]):
                continue
            nxt = e[1] if node == e[0] else e[0]
            depart = _mark_at(e, node)
            if _is_collider(arrive, depart) != (node in z):
                continue
            if nxt in y:
                return True
            if search(nxt, _mark_at(e, nxt), used + 1):
                return True
        return False

    for s in x:
        for e in edges:
            if s not in (e[0], e[1]):
                continue
            nxt = e[1] if s == e[0] else e[0]
            if nxt in y:
                return True
            if search(nxt, _mark_at(e, nxt), 1):
                return True
    return False


# -- queries ------------------------------------------------------------------


def test_query_validation():
    SeparationQuery({1}, {2}, {3})
    with pytest.raises(MalformedQueryError):
        SeparationQuery(frozenset(), {2}, frozenset())
    with pytest.raises(MalformedQueryError):
        SeparationQuery({1}, frozenset(), frozenset())
    with pytest.raises(MalformedQueryError):
        SeparationQuery({1}, {1, 2}, frozenset())
    with pytest.raises(MalformedQueryError):
        SeparationQuery({1}, {2}, {2, 3})


def test_singleton_queries_order_is_pinned():
    # equiv-check and sem-check walk the queries in this order, and print
    # per-query lines in it when something fails.
    for n in range(8):
        expected = []
        for x, y in combinations(range(1, n + 1), 2):
            rest = [v for v in range(1, n + 1) if v != x and v != y]
            for pick in range(1 << len(rest)):
                expected.append((x, y, frozenset(r for i, r in enumerate(rest) if pick >> i & 1)))
        assert list(singleton_queries(n)) == expected, n


def test_singleton_sweep_is_refused_above_its_cap_at_the_call():
    # Refused before a single mask is walked; nothing at the cap is run.
    for sweep in (singleton_queries, _singleton_pairs):
        with pytest.raises(ProblemTooLargeError, match=f"cap of {MAX_SWEEP_NODES}$"):
            sweep(MAX_SWEEP_NODES + 1)


# -- route engine -------------------------------------------------------------


def test_route_examples(double_edge3, ident_alt):
    assert connects_route(double_edge3, SeparationQuery({1}, {3}, frozenset()))
    assert connects_route(double_edge3, SeparationQuery({1}, {3}, {2}))
    assert not connects_route(MixedGraph(3), SeparationQuery({1}, {3}, {2}))
    assert connects_route(ident_alt, SeparationQuery({1}, {2}, {3}))


def test_route_matches_walk_oracle_exhaustive_n3():
    for dialect in (Dialect.ALTERNATIVE, Dialect.ORIGINAL):
        for g in enumerate_graphs(3, dialect):
            for x, y, z in singleton_queries(3):
                q = SeparationQuery({x}, {y}, z)
                assert connects_route(g, q) == oracle_route_connected(
                    g, {x}, {y}, z), (g, x, y, z)


def test_route_matches_walk_oracle_random_n4():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, 4, biarrow_ok=True)
        for x, y, z in singleton_queries(4):
            q = SeparationQuery({x}, {y}, z)
            assert connects_route(g, q) == oracle_route_connected(
                g, {x}, {y}, z), (g, x, y, z)


def test_criterion_2_matches_networkx_on_line_free_graphs():
    # bench/oracle.py runs networkx's is_d_separator, each biarrow replaced
    # by a latent common parent: every arrows-only graph with n <= 4, every
    # original-dialect graph with n <= 3 and seeded biarrow graphs to n = 8.
    oracle = load_bench("oracle")
    graphs = [g for n in (1, 2, 3) for g in enumerate_graphs(n, Dialect.ORIGINAL)]
    graphs += [g for g in enumerate_graphs(4, Dialect.ORIGINAL) if not g.biarrows]
    assert len(graphs) == 207 + 543
    rng = random.Random(47)
    for n in (5, 5, 6, 6, 7, 7, 8, 8):
        g = random_graph(rng, n)
        graphs.append(MixedGraph(n, g.arrows, biarrows=g.lines))
    checked = 0
    for g in graphs:
        og = oracle.Graph(g.n, g.arrows, biarrows=g.biarrows)
        for x, y, z in singleton_queries(g.n):
            assert (separated(g, SeparationQuery({x}, {y}, z))
                    == oracle.separated(og, {x}, {y}, z)), (g, x, y, z)
            checked += 1
    assert checked == 19_806


def _lanes_match_queries(g, xm, ym, zm, rest):
    # Lane k of the lane kernel against one per-query fixpoint for zm plus
    # the k-th submask of rest.
    lanes = _route_lanes(g._adj, xm, ym, zm, rest)
    count = 0
    for k, s in enumerate(_submasks(rest)):
        assert bool(lanes >> k & 1) == _route_connected(g._adj, xm, ym, zm | s), \
            (g, xm, ym, zm, s)
        count += 1
    assert lanes >> count == 0, (g, xm, ym, zm, rest)
    return count


def test_route_lanes_match_the_per_query_route():
    # Every graph with n <= 3 and every 9th with n = 4, both dialects; then
    # seeded line and biarrow graphs with n = 5..9.  Each pair is asked with
    # every other node in rest, with a seeded part of it, with rest = 0 (one
    # lane), and with one seeded node fixed in zm and lanes over the others;
    # the seeded graphs also with x and y of several nodes.
    rng = random.Random(53)
    graphs = [g for dialect in (Dialect.ALTERNATIVE, Dialect.ORIGINAL)
              for n in (1, 2, 3, 4) for i, g in enumerate(enumerate_graphs(n, dialect))
              if n < 4 or i % 9 == 0]
    graphs += [random_graph(rng, n, biarrow_ok=True) for n in (5, 6, 7, 8, 9) for _ in range(4)]
    checked = 0
    for g in graphs:
        full = (1 << g.n) - 1
        for xm, ym, rest in _singleton_pairs(g.n):
            for r in (rest, rest & rng.getrandbits(g.n), 0):
                checked += _lanes_match_queries(g, xm, ym, 0, r)
            if rest:
                zm = 1 << (rng.choice(list(_bits(rest))) - 1)
                checked += _lanes_match_queries(g, xm, ym, zm, rest & ~zm)
        if g.n >= 5:
            for _ in range(5):
                x, y, _z = _random_sets(rng, g.n)
                xm, ym = g.node_mask(x), g.node_mask(y)
                checked += _lanes_match_queries(g, xm, ym, 0, full & ~xm & ~ym)
    assert checked == 484_823


def _path_lanes_match_the_oracle(g, xm, ym, zm, rest):
    # Lane k of the criterion-1 kernel against the path oracle for zm plus
    # the k-th submask of rest.
    lanes = separation._path_connected(g, xm, ym, zm, rest)
    x, y = set(_bits(xm)), set(_bits(ym))
    count = 0
    for k, s in enumerate(_submasks(rest)):
        z = set(_bits(zm | s))
        assert bool(lanes >> k & 1) == oracle_path_connected(g, x, y, z), (g, x, y, z)
        count += 1
    assert lanes >> count == 0, (g, xm, ym, zm, rest)
    return count


def test_path_lanes_match_the_path_oracle():
    # Every alternative graph with n <= 3 and every 9th with n = 4, then
    # seeded ones with n = 5..8.  Each pair is asked with every other node in
    # rest, with a seeded part of it and with rest = 0 (one lane), and with
    # one seeded node fixed in zm and lanes over the others; the seeded
    # graphs also with x and y of several nodes.
    rng = random.Random(71)
    graphs = [g for n in (1, 2, 3, 4)
              for i, g in enumerate(enumerate_graphs(n, Dialect.ALTERNATIVE))
              if n < 4 or i % 9 == 0]
    graphs += [random_graph(rng, n) for n in (5, 6, 7, 8) for _ in range(2)]
    checked = 0
    for g in graphs:
        full = (1 << g.n) - 1
        for xm, ym, rest in _singleton_pairs(g.n):
            for r in (rest, rest & rng.getrandbits(g.n), 0):
                checked += _path_lanes_match_the_oracle(g, xm, ym, 0, r)
            if rest:
                zm = 1 << (rng.choice(list(_bits(rest))) - 1)
                checked += _path_lanes_match_the_oracle(g, xm, ym, zm, rest & ~zm)
        if g.n >= 5:
            for _ in range(5):
                x, y, _z = _random_sets(rng, g.n)
                xm, ym = g.node_mask(x), g.node_mask(y)
                checked += _path_lanes_match_the_oracle(g, xm, ym, 0, full & ~xm & ~ym)
    assert checked == 227_515


def test_separating_masks_match_the_public_path():
    # Each pair's separating z, asked once per criterion, against separated()
    # per query, the table's rest = 0 case (for criterion 2 the scalar
    # kernel): every alternative graph with n = 3 and seeded ones with
    # n = 4..7 under all four criteria; under criterion 2, biarrow graphs too.
    rng = random.Random(61)
    lines = list(enumerate_graphs(3, Dialect.ALTERNATIVE))
    lines += [random_graph(rng, n) for n in (4, 5, 6, 7) for _ in range(10)]
    biarrows = list(enumerate_graphs(3, Dialect.ORIGINAL))
    biarrows += [random_graph(rng, n, biarrow_ok=True) for n in (4, 5, 6, 7) for _ in range(10)]
    checked = 0
    for criteria, graphs in (((1, 2, 3, 4), lines), ((2,), biarrows)):
        for g in graphs:
            for xm, ym, rest in _singleton_pairs(g.n):
                for c in criteria:
                    expected = [zm for zm in _submasks(rest) if separated(
                        g, SeparationQuery._from_masks(xm, ym, zm), c)]
                    assert _separating_masks(g, c, xm, ym, 0, rest) == expected, (g, xm, ym, c)
                    checked += 1 << rest.bit_count()
    assert checked == 56_800


def test_criterion_2_matches_the_exact_gaussian_oracle():
    # Every graph with n = 3 and a seeded sample of 300 with n = 4, both
    # dialects, then seeded line and biarrow graphs with n = 5.  Each
    # singleton query is asked of the lane kernel and of separated(..., 2),
    # and both must equal the singularity of a minor of an exact SEM's Sigma.
    rng = random.Random(59)
    graphs = [g for dialect in (Dialect.ALTERNATIVE, Dialect.ORIGINAL)
              for g in (list(enumerate_graphs(3, dialect))
                        + rng.sample(list(enumerate_graphs(4, dialect)), 300))]
    graphs += [random_graph(rng, 5, biarrow_ok=True) for _ in range(60)]
    checked = 0
    for g in graphs:
        sigma = gf_sigma(g, rng)
        for xm, ym, rest in _singleton_pairs(g.n):
            lanes = _route_lanes(g._adj, xm, ym, 0, rest)
            for zm in _submasks(rest):
                q = SeparationQuery._from_masks(xm, ym, zm)
                sep = gf_separated(sigma, xm.bit_length(), ym.bit_length(), _bits(zm))
                assert (not lanes & 1) == separated(g, q) == sep, (g, q.x, q.y, q.z)
                lanes >>= 1
                checked += 1
    assert checked == 21_600


def _random_sets(rng, n):
    # Disjoint x, y (non-empty) and z, each possibly of several nodes.
    nodes = rng.sample(range(1, n + 1), n)
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    return (set(nodes[:i]), set(nodes[i:j]),
            {v for v in nodes[j:] if rng.random() < 0.6})


def test_route_matches_walk_oracle_on_node_sets():
    # Both dialects, up to n = 6, with x, y and z of any size.
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(3, 6)
        g = random_graph(rng, n, biarrow_ok=True)
        for _ in range(20):
            x, y, z = _random_sets(rng, n)
            assert connects_route(g, SeparationQuery(x, y, z)) == \
                oracle_route_connected(g, x, y, z), (g, x, y, z)


def test_route_matches_walk_oracle_on_regime_graphs():
    # The graphs the learner scores regime constraints in.
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, biarrow_ok=True)
        for i in range(1, n + 1):
            h = intervene(g, [i])
            for x, y, z in singleton_queries(n):
                assert connects_route(h, SeparationQuery({x}, {y}, z)) == \
                    oracle_route_connected(h, {x}, {y}, z), (h, x, y, z)
            for _ in range(10):
                x, y, z = _random_sets(rng, n)
                assert connects_route(h, SeparationQuery(x, y, z)) == \
                    oracle_route_connected(h, x, y, z), (h, x, y, z)


# -- path engine --------------------------------------------------------------


def test_path_examples(double_edge3):
    assert not separated(double_edge3, SeparationQuery({1}, {3}, {2}), 1)
    assert not separated(MixedGraph(2, arrows={(1, 2)}),
                         SeparationQuery({1}, {2}, frozenset()), 1)
    collider = MixedGraph(3, arrows={(1, 3), (2, 3)})
    assert separated(collider, SeparationQuery({1}, {2}, frozenset()), 1)
    assert not separated(collider, SeparationQuery({1}, {2}, {3}), 1)


def test_path_matches_path_oracle_exhaustive_n3():
    for g in enumerate_graphs(3, Dialect.ALTERNATIVE):
        for x, y, z in singleton_queries(3):
            q = SeparationQuery({x}, {y}, z)
            assert (not separated(g, q, 1)) == oracle_path_connected(
                g, {x}, {y}, z), (g, x, y, z)


def test_path_matches_path_oracle_random_n5():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, 5)
        for x, y, z in singleton_queries(5):
            q = SeparationQuery({x}, {y}, z)
            assert (not separated(g, q, 1)) == oracle_path_connected(
                g, {x}, {y}, z), (g, x, y, z)


def test_path_rejects_biarrows(ident_orig):
    with pytest.raises(UnsupportedDialectError, match="^path separation is not defined"):
        separated(ident_orig, SeparationQuery({1}, {2}, frozenset()), 1)


# -- graph constructions --------------------------------------------------------


def test_extended_subgraph(mixed6):
    ext = extended_subgraph(mixed6, {1, 2, 4})
    assert ext.arrows == {(1, 2), (1, 4), (2, 4)}
    assert ext.lines == {(3, 4), (3, 5), (4, 6), (5, 6)}
    assert mixed6.connectivity_component(mixed6.ancestors({1, 2, 4})) == {1, 2, 3, 4, 5, 6}
    assert extended_subgraph(mixed6, range(1, 7)) == mixed6
    assert extended_subgraph(mixed6, frozenset()) == MixedGraph(6)


def test_augmented_graph():
    g = MixedGraph(3, arrows={(1, 3)}, lines={(2, 3)})
    assert augmented_graph(g).lines == {(1, 2), (1, 3), (2, 3)}
    g = MixedGraph(4, arrows={(1, 3), (2, 4)}, lines={(3, 4)})
    assert (1, 2) in augmented_graph(g).lines
    assert augmented_graph(MixedGraph(3)) == MixedGraph(3)


def test_augmented_contains_skeleton(mixed6):
    aug = augmented_graph(mixed6)
    for t, h in mixed6.arrows:
        assert (min(t, h), max(t, h)) in aug.lines
    assert mixed6.lines <= aug.lines


def test_marginal_graph(mixed6):
    chain = MixedGraph(3, lines={(1, 2), (2, 3)})
    assert marginal_graph(chain, {1, 3}).lines == {(1, 3)}
    assert marginal_graph(chain, {1, 2, 3}) == chain
    skel = mixed6.undirected_skeleton()
    assert marginal_graph(skel, {3, 5, 6}).lines == {(3, 5), (3, 6), (5, 6)}


def _marginal_reference(h, keep):
    """Lines of ``h`` marginalised onto ``keep``, by the definition: kept
    nodes a and b are joined iff they are adjacent in ``h`` or linked by a
    path whose inner nodes are all dropped."""
    nbrs = {v: set() for v in range(1, h.n + 1)}
    for a, b in h.lines:
        nbrs[a].add(b)
        nbrs[b].add(a)
    lines = set()
    for a in keep:
        seen, todo = {a}, [a]
        while todo:
            for w in nbrs[todo.pop()] - seen:
                seen.add(w)
                if w in keep:
                    lines.add((min(a, w), max(a, w)))
                else:
                    todo.append(w)
    return lines


def _undirected_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for pick in range(1 << len(pairs)):
        yield MixedGraph(n, lines={p for i, p in enumerate(pairs) if pick >> i & 1})


def test_marginal_graph_matches_its_definition():
    cases = [(h, keep) for n in range(5) for h in _undirected_graphs(n)
             for keep in (set(c) for k in range(n + 1)
                          for c in combinations(range(1, n + 1), k))]
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(5, 7)
        h = random_graph(rng, n).undirected_skeleton()
        cases.append((h, {v for v in range(1, n + 1) if rng.random() < 0.5}))
    for h, keep in cases:
        m = marginal_graph(h, keep)
        assert m.n == h.n and not m.arrows and not m.biarrows
        assert m.lines == _marginal_reference(h, keep), (h, keep)


def test_marginal_rejects_directed_input(mixed6):
    with pytest.raises(ValueError):
        marginal_graph(mixed6, {1, 2})


# -- separated ----------------------------------------------------------------


def test_chain_lines_never_separated(chain_lines4):
    for criterion in (1, 2, 3, 4):
        for zpick in range(4):
            z = {v for i, v in enumerate((2, 3)) if zpick >> i & 1}
            q = SeparationQuery({1}, {4}, z)
            assert not separated(chain_lines4, q, criterion=criterion)


def test_single_arrow_connected():
    g = MixedGraph(2, arrows={(1, 2)})
    for criterion in (1, 2, 3, 4):
        assert not separated(g, SeparationQuery({1}, {2}, frozenset()),
                             criterion=criterion)


def test_criteria_reject_biarrows(ident_orig):
    q = SeparationQuery({1}, {2}, frozenset())
    for criterion in (1, 3, 4):
        with pytest.raises(UnsupportedDialectError):
            separated(ident_orig, q, criterion=criterion)
    separated(ident_orig, q, criterion=2)


def test_unknown_criterion(double_edge3):
    with pytest.raises(ValueError):
        separated(double_edge3, SeparationQuery({1}, {3}, frozenset()),
                  criterion=5)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_criteria_agree_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 5))
    x, y, z = rng.choice(list(singleton_queries(g.n)))
    q = SeparationQuery({x}, {y}, z)
    verdicts = {separated(g, q, criterion=c) for c in (1, 2, 3, 4)}
    assert len(verdicts) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_separated_is_symmetric(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 5), biarrow_ok=True)
    x, y, z = rng.choice(list(singleton_queries(g.n)))
    a = separated(g, SeparationQuery({x}, {y}, z))
    b = separated(g, SeparationQuery({y}, {x}, z))
    assert a == b


# -- memos ---------------------------------------------------------------------
#
# A graph memoises the augmented graph of criteria 3 and 4, and a query its
# node masks.  Each memoised answer must equal one computed from scratch.


def _memo_graphs():
    graphs = [parse(path.read_text()) for path in sorted(DATA.glob("*.g"))]
    rng = random.Random(23)
    graphs += [random_graph(rng, n) for n in (2, 3, 4, 5, 6, 6, 7, 7)]
    return [g for g in graphs if not g.biarrows]


def test_memoised_criteria_3_and_4_match_fresh_graphs():
    # One graph object and one query object per question, every question
    # asked twice in shuffled order; the reference rebuilds the graph and
    # the query each time, so both start with empty memos.
    rng = random.Random(29)
    for g in _memo_graphs():
        asks = [(SeparationQuery({x}, {y}, z), c)
                for x, y, z in singleton_queries(g.n) for c in (3, 4)] * 2
        rng.shuffle(asks)
        for q, c in asks:
            fresh = MixedGraph(g.n, g.arrows, g.lines)
            assert separated(g, q, criterion=c) == separated(
                fresh, SeparationQuery(q.x, q.y, q.z), criterion=c), (g, q, c)


def test_moral_masks_match_public_constructions():
    rng = random.Random(31)
    for g in _memo_graphs():
        asks = [(sm, c) for sm in range(1, 1 << g.n) for c in (3, 4)] * 2
        rng.shuffle(asks)
        for sm, c in asks:
            nodes = g.mask_nodes(sm)
            ext = extended_subgraph(g, nodes)
            if c == 4:
                lines = marginal_graph(ext.undirected_skeleton(),
                                       g.ancestors(nodes)).lines
                ext = MixedGraph(g.n, ext.arrows, lines)
            want = tuple(augmented_graph(ext)._adj[2])
            assert _moral_masks(g, sm, c) == want, (g, nodes, c)


def test_query_reused_across_graphs_keeps_range_errors():
    big = random_graph(random.Random(37), 9)
    small = random_graph(random.Random(41), 6)
    reused = {SeparationQuery({8}, {1}, {2}): "node 8 out of range 1..6",
              SeparationQuery({2}, {1}, {3, 9}): "node 9 out of range 1..6"}
    zero = SeparationQuery({3}, {1}, {0})
    # Of several nodes out of range the lowest is named, whatever the order
    # of the sets or of a set's hash slots ({9, 16} iterates as 16, 9).
    lowest = {SeparationQuery({9, 16}, {2}): "node 9 out of range 1..7",
              SeparationQuery({12}, {1}, {3, 8}): "node 8 out of range 1..7"}
    for c in (1, 2, 3, 4):
        for q, message in lowest.items():
            with pytest.raises(NodeOutOfRangeError) as exc:
                separated(MixedGraph(7), q, criterion=c)
            assert str(exc.value) == message
        for _ in range(2):
            for q, message in reused.items():
                want = separated(MixedGraph(9, big.arrows, big.lines),
                                 SeparationQuery(q.x, q.y, q.z), criterion=c)
                assert separated(big, q, criterion=c) == want
                with pytest.raises(NodeOutOfRangeError) as exc:
                    separated(small, q, criterion=c)
                assert str(exc.value) == message
            with pytest.raises(NodeOutOfRangeError) as exc:
                separated(big, zero, criterion=c)
            assert str(exc.value) == "node 0 out of range 1..9"


def test_query_naming_a_node_no_graph_has_builds_no_mask():
    # Such a set holds the mask -1 and keeps its frozenset, so the error
    # still names the node and no mask as wide as the node is allocated.
    g = random_graph(random.Random(43), 5)
    for bad in (0, -2, MAX_GRAPH_NODES + 1):
        q = SeparationQuery({2}, {1}, {3, bad})
        assert (q.xm, q.ym, q.zm) == (2, 1, -1) and q.z == {3, bad}
        for c in (1, 2, 3, 4):
            with pytest.raises(NodeOutOfRangeError) as exc:
                separated(g, q, criterion=c)
            assert str(exc.value) == f"node {bad} out of range 1..5"


def test_query_on_a_graph_past_the_file_cap_is_answered():
    # The library builds graphs of any size; past MAX_GRAPH_NODES a query
    # holds the mask -1 for a set that is in range, and is answered from
    # its sets.
    big = MAX_GRAPH_NODES + 1
    g = MixedGraph(big, arrows={(1, big)}, lines={(2, big)})
    for q, want in ((SeparationQuery({big}, {1}), False),
                    (SeparationQuery({big}, {3}), True),
                    (SeparationQuery({1}, {2}, {big}), False)):
        assert q.xm == -1 or q.zm == -1
        for c in (1, 2, 3, 4):
            assert separated(g, q, criterion=c) is want


def test_criterion_4_walks_only_the_dropped_components_next_to_the_ancestors(monkeypatch):
    # Marginalising onto the ancestor set {1, 2, big} walks the one dropped
    # line component that borders it, {3}, not one per isolated node.
    real, walked = separation._components, []

    def counting_components(step, todo, block=0):
        for comp in real(step, todo, block):
            walked.append(comp)
            yield comp

    monkeypatch.setattr(separation, "_components", counting_components)
    big = MAX_GRAPH_NODES + 1
    g = MixedGraph(big, arrows={(1, 3)}, lines={(2, 3)})
    assert separated(g, SeparationQuery({1}, {2}, {big}), criterion=4)
    assert len(walked) == 1
