import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ampadmg import (
    CiStatement,
    Constraint,
    Dialect,
    GraphValidationError,
    DirectedCycleError,
    DoubleArrowError,
    DoubleEdgeError,
    LearnProblem,
    LineBiarrowMixError,
    LinearSem,
    MixedGraph,
    NodeOutOfRangeError,
    ParseError,
    SelfEdgeError,
    SeparationQuery,
    augmented_graph,
    ci_test,
    enumerate_graphs,
    determined_closure,
    extended_subgraph,
    implied_covariance,
    intervene,
    magnify,
    marginal_graph,
    markov_blanket,
    parse,
    random_sem,
    rule_applicable,
    separated,
    separated_with_determinism,
    serialize,
    set_index,
    set_members,
    with_regime_nodes,
)
from ampadmg import graph
from ampadmg.graph import MAX_GRAPH_NODES, _components, _spread
from conftest import random_graph


# -- construction and validation --------------------------------------------


def test_double_edge_pair_is_valid(double_edge3):
    assert double_edge3.arrows == {(1, 2), (2, 3)}
    assert double_edge3.lines == {(2, 3)}
    assert double_edge3.dialect is Dialect.ALTERNATIVE


def test_antisymmetric_arrows_rejected():
    with pytest.raises(DoubleArrowError):
        MixedGraph(2, arrows={(1, 2), (2, 1)})


def test_three_cycle_rejected():
    arrows = {(1, 2), (2, 3), (3, 1), (4, 1), (2, 5)}
    with pytest.raises(DirectedCycleError) as err:
        MixedGraph(5, arrows=arrows)
    cycle = err.value.cycle
    assert cycle[0] == cycle[-1] and len(cycle) == 4
    assert all(step in arrows for step in zip(cycle, cycle[1:]))


def test_self_edges_rejected():
    with pytest.raises(SelfEdgeError):
        MixedGraph(2, arrows={(1, 1)})
    with pytest.raises(SelfEdgeError):
        MixedGraph(2, lines={(2, 2)})


def test_line_and_biarrow_on_one_pair_rejected():
    with pytest.raises(DoubleEdgeError):
        MixedGraph(2, lines={(1, 2)}, biarrows={(1, 2)})


def test_lines_and_biarrows_never_coexist():
    with pytest.raises(LineBiarrowMixError):
        MixedGraph(3, lines={(1, 2)}, biarrows={(2, 3)})


def test_node_out_of_range_rejected():
    with pytest.raises(NodeOutOfRangeError):
        MixedGraph(2, arrows={(1, 3)})
    with pytest.raises(NodeOutOfRangeError):
        MixedGraph(2, lines={(0, 1)})


def test_node_names_must_match_count():
    with pytest.raises(ValueError):
        MixedGraph(2, node_names=("A",))
    with pytest.raises(ValueError):
        MixedGraph(2, node_names=("A", "A"))


def test_dialect_of_biarrow_graph(ident_orig):
    assert ident_orig.dialect is Dialect.ORIGINAL
    assert MixedGraph(1).dialect is Dialect.ALTERNATIVE


def test_unordered_pairs_are_normalized():
    g = MixedGraph(2, lines={(2, 1)})
    assert g.lines == {(1, 2)}


# -- masks as the representation --------------------------------------------


@st.composite
def pair_sets(draw):
    """``(n, arrows, lines, biarrows, masks)``: random valid edge pairs of
    one dialect, undirected pairs in either orientation, and the
    ``(pa, ch, ne, bi)`` masks they stand for, built here by hand."""
    n = draw(st.integers(0, 7))
    rank = draw(st.permutations(range(n)))
    biarrows_ok = draw(st.booleans())
    arrows, und = set(), set()
    pa, ch, ne, bi = ([0] * (n + 1) for _ in range(4))
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if draw(st.booleans()):
                t, h = (a, b) if rank[a - 1] < rank[b - 1] else (b, a)
                arrows.add((t, h))
                pa[h] |= 1 << (t - 1)
                ch[t] |= 1 << (h - 1)
            if draw(st.booleans()):
                und.add((a, b) if draw(st.booleans()) else (b, a))
                m = bi if biarrows_ok else ne
                m[a] |= 1 << (b - 1)
                m[b] |= 1 << (a - 1)
    lines, biarrows = (set(), und) if biarrows_ok else (und, set())
    return n, arrows, lines, biarrows, (pa, ch, ne, bi)


def _sorted_pairs(pairs):
    return frozenset((min(e), max(e)) for e in pairs)


@given(pair_sets())
def test_constructor_and_masks_build_the_same_graph(case):
    n, arrows, lines, biarrows, masks = case
    g = MixedGraph(n, arrows, lines, biarrows)
    d = MixedGraph._from_masks(n, masks)
    assert g == d and hash(g) == hash(d)
    assert g._adj == d._adj
    assert g.arrows == d.arrows == arrows
    assert g.lines == d.lines == _sorted_pairs(lines)
    assert g.biarrows == d.biarrows == _sorted_pairs(biarrows)
    assert repr(g) == repr(d)
    assert serialize(g) == serialize(d)
    assert g.dialect is d.dialect is (Dialect.ORIGINAL if biarrows else Dialect.ALTERNATIVE)


def test_labels_take_no_part_in_equality():
    plain = MixedGraph(3, arrows={(1, 2)}, lines={(2, 3)})
    named = MixedGraph(3, arrows={(1, 2)}, lines={(2, 3)}, node_names=("A", "B", "C"))
    other = MixedGraph(3, arrows={(1, 2)}, lines={(2, 3)}, node_names=("X", "Y", "Z"))
    assert plain == named == other
    assert hash(plain) == hash(named) == hash(other)
    assert plain != MixedGraph(3, arrows={(1, 2)})
    assert plain != MixedGraph(4, arrows={(1, 2)}, lines={(2, 3)})


def test_graphs_are_immutable_and_compare_only_to_graphs():
    g = MixedGraph(2, arrows={(1, 2)})
    assert (g == object()) is False
    assert g != (2, frozenset({(1, 2)}))
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(AttributeError):
        g.lines = frozenset({(1, 2)})
    with pytest.raises(AttributeError, match="^cannot delete 'n': MixedGraph is immutable$"):
        del g.n
    assert g.n == 2 and not g.lines


@pytest.mark.parametrize("kwargs,error,message", [
    (dict(n=2, arrows={(1, 1)}), SelfEdgeError, "arrow 1 -> 1"),
    (dict(n=2, lines={(2, 2)}), SelfEdgeError, "line 2 - 2"),
    (dict(n=3, arrows={(3, 2), (2, 3)}), DoubleArrowError, "both 2 -> 3 and 3 -> 2"),
    (dict(n=3, lines={(2, 3)}, biarrows={(3, 2)}), DoubleEdgeError,
     "pair 2,3 carries both a line and a biarrow"),
    (dict(n=3, lines={(1, 2)}, biarrows={(2, 3)}), LineBiarrowMixError,
     "lines and biarrows in the same graph"),
    (dict(n=3, arrows={(1, 2), (2, 3), (3, 1)}), DirectedCycleError,
     "directed cycle: 1 -> 2 -> 3 -> 1"),
    (dict(n=2, arrows={(1, 3)}), NodeOutOfRangeError, "node 3 out of range 1..2"),
    (dict(n=-1), NodeOutOfRangeError, "invalid node count -1"),
], ids=["self-arrow", "self-line", "double-arrow", "line-and-biarrow", "mix",
        "3-cycle", "out-of-range", "negative-n"])
def test_violation_errors_are_pinned(kwargs, error, message):
    with pytest.raises(error) as err:
        MixedGraph(**kwargs)
    assert type(err.value) is error
    assert str(err.value) == message
    assert isinstance(err.value, (GraphValidationError, NodeOutOfRangeError))


# -- node set encoding -------------------------------------------------------


def test_set_index_packs_low_bits():
    assert set_index([]) == 0
    assert set_index([1]) == 1
    assert set_index([3]) == 4
    assert set_index([1, 3]) == 5


@given(st.sets(st.integers(1, 8)))
def test_set_index_round_trip(members):
    assert set_members(set_index(members), 8) == members


def test_set_members_range_check():
    with pytest.raises(NodeOutOfRangeError):
        set_members(8, 2)
    with pytest.raises(NodeOutOfRangeError, match="^set index 0 out of range for n=-1$"):
        set_members(0, -1)
    with pytest.raises(NodeOutOfRangeError, match="^node 0 out of range$"):
        set_index([0])


# -- relations ---------------------------------------------------------------


def test_neighbours(mixed6):
    assert mixed6.neighbours({4}) == {3, 6}


def test_semidescendants_and_complement(mixed6):
    assert mixed6.semidescendants({2}) == {2, 3, 4, 5, 6}
    assert mixed6.non_semidescendants({2}) == {1}


def test_relations_of_empty_set(mixed6):
    # Pa, Ch, Ne, An, De, de and Cc of nothing is nothing; Nd is every node.
    for relation in (mixed6.parents, mixed6.children, mixed6.neighbours, mixed6.ancestors,
                     mixed6.descendants, mixed6.semidescendants,
                     mixed6.connectivity_component):
        assert relation(frozenset()) == frozenset(), relation.__name__
    assert mixed6.non_semidescendants(frozenset()) == frozenset(range(1, 7))


def test_ancestors_are_reflexive(mixed6):
    assert mixed6.ancestors({4}) == {1, 2, 4}


def test_connectivity_components(mixed6):
    assert set(mixed6.connectivity_components()) == {
        frozenset({1}), frozenset({2}), frozenset({3, 4, 5, 6})}
    assert set(MixedGraph(3).connectivity_components()) == {
        frozenset({1}), frozenset({2}), frozenset({3})}
    assert set(MixedGraph(2, lines={(1, 2)}).connectivity_components()) == {
        frozenset({1, 2})}


def test_connectivity_components_match_one_walk_over_every_node():
    # The partition, in its order, of one component walk over all nodes, on
    # every graph with n <= 4.
    for n in range(5):
        for g in enumerate_graphs(n, Dialect.ALTERNATIVE):
            walked = tuple(g.mask_nodes(c) for c in _components(g._adj[2], g.full_mask))
            assert g.connectivity_components() == walked, g


def test_connectivity_components_walk_only_the_nodes_with_a_line(monkeypatch):
    # On 100,001 nodes and three edges, one spread covers the one component
    # with lines, and the 99,998 nodes without one become singletons unwalked.
    spreads, walked = [], []
    real_spread, real_bits = graph._spread, graph._bits

    def counting_spread(*args):
        spreads.append(args[1])
        return real_spread(*args)

    def counting_bits(mask):
        for v in real_bits(mask):
            walked.append(v)
            yield v

    monkeypatch.setattr(graph, "_spread", counting_spread)
    monkeypatch.setattr(graph, "_bits", counting_bits)
    g = MixedGraph(MAX_GRAPH_NODES + 1, arrows={(1, 3)}, lines={(2, 3), (3, 4)})
    walked.clear()
    comps = g.connectivity_components()
    assert spreads == [0b10] and len(walked) <= 16
    assert len(comps) == MAX_GRAPH_NODES - 1
    assert comps[:3] == (frozenset({1}), frozenset({2, 3, 4}), frozenset({5}))
    assert comps[-1] == frozenset({MAX_GRAPH_NODES + 1})


def test_connectivity_component_of_node(mixed6):
    assert mixed6.connectivity_component({3}) == {3, 4, 5, 6}


# -- subgraphs ---------------------------------------------------------------


def test_undirected_skeleton(mixed6):
    skel = mixed6.undirected_skeleton()
    assert not skel.arrows
    assert skel.lines == mixed6.lines
    dag = MixedGraph(3, arrows={(1, 2), (2, 3)})
    assert dag.undirected_skeleton() == MixedGraph(3)
    ug = MixedGraph(3, lines={(1, 2), (2, 3)})
    assert ug.undirected_skeleton() == ug


def test_derived_graphs_match_a_validated_rebuild():
    # Derived graphs are built from masks without validation: each must
    # equal, masks included, the graph rebuilt through the constructor.
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, biarrow_ok=True)
        s = {v for v in range(1, n + 1) if rng.random() < 0.4}
        derived = [intervene(g, s), with_regime_nodes(g, s), g.undirected_skeleton()]
        if not g.biarrows:
            derived += [extended_subgraph(g, s), augmented_graph(g), magnify(g),
                        marginal_graph(g.undirected_skeleton(), s)]
        for d in derived:
            rebuilt = MixedGraph(d.n, d.arrows, d.lines, d.biarrows)
            assert d == rebuilt and d._adj == rebuilt._adj, (g, s, d)


# -- the reachability kernel -------------------------------------------------


def _search(step, seed, block):
    """Every node a search over the successor sets ``step`` reaches from
    ``seed``, leaving no node of ``block``."""
    reached = set(seed)
    todo = [v for v in seed if v not in block]
    while todo:
        for w in step[todo.pop()]:
            if w not in reached:
                reached.add(w)
                if w not in block:
                    todo.append(w)
    return reached


@st.composite
def spread_cases(draw):
    """``(n, step, seed, block, stop)``: per-node successor sets of at most
    three nodes over n <= 8 nodes (index 0 unused), so that blocking a node
    can cut a search short, and three node masks."""
    n = draw(st.integers(0, 8))
    succ = st.sets(st.integers(1, n), max_size=3) if n else st.just(set())
    step = [set()] + [draw(succ) for _ in range(n)]
    nodes = st.integers(0, (1 << n) - 1)
    return n, step, draw(nodes), draw(nodes), draw(nodes)


@settings(max_examples=300)
@given(spread_cases())
def test_spread_matches_a_set_based_search(case):
    n, step, seed, block, stop = case
    masks = [set_index(s) for s in step]
    reached = set_index(_search(step, set_members(seed, n), set_members(block, n)))
    assert _spread(masks, seed, block) == reached
    # An early stop may leave the rest of the search undone.
    got = _spread(masks, seed, block, stop)
    assert seed & ~got == 0 and got & ~reached == 0
    assert bool(got & stop) == bool(reached & stop)


# -- orderings and chain graph check -----------------------------------------


def test_consistent_ordering(double_edge3):
    assert double_edge3.consistent_ordering() == (1, 2, 3)
    assert MixedGraph(3).consistent_ordering() == (1, 2, 3)
    assert MixedGraph(3, arrows={(3, 2), (2, 1)}).consistent_ordering() == (3, 2, 1)


def test_ordering_respects_arrows(mixed6):
    order = mixed6.consistent_ordering()
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[t] < pos[h] for t, h in mixed6.arrows)


def test_consistent_ordering_matches_brute_force():
    # The reference: the lexicographically first permutation that places
    # every arrow's tail before its head, which is the order that always
    # places the smallest available node.
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(0, 8)
        g = random_graph(rng, n)
        for perm in permutations(range(1, n + 1)):
            pos = {v: i for i, v in enumerate(perm)}
            if all(pos[t] < pos[h] for t, h in g.arrows):
                break
        assert g.consistent_ordering() == perm, g


def test_is_amp_cg(double_edge3):
    assert not double_edge3.is_amp_cg()  # double edge
    assert MixedGraph(3, arrows={(1, 2)}, lines={(2, 3)}).is_amp_cg()
    # one arrow plus a line path back to its tail: semidirected cycle
    assert not MixedGraph(3, arrows={(1, 2)}, lines={(2, 3), (1, 3)}).is_amp_cg()
    # an arrow chain, and the same chain closed by one line: every arrow
    # then lies on a semidirected cycle
    chain = {(i, i + 1) for i in range(1, 12)}
    assert MixedGraph(12, arrows=chain).is_amp_cg()
    assert not MixedGraph(12, arrows=chain, lines={(1, 12)}).is_amp_cg()


def _is_amp_cg_reference(g) -> bool:
    # On the edge sets: no biarrows, and no arrow a -> b whose head b leads
    # back to a by forward steps (arrows tail to head, lines either way).
    if g.biarrows:
        return False
    step = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.arrows:
        step[a].add(b)
    for a, b in g.lines:
        step[a].add(b)
        step[b].add(a)
    for a, b in g.arrows:
        seen, todo = {b}, [b]
        while todo:
            for w in step[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        if a in seen:
            return False
    return True


def test_is_amp_cg_matches_an_edge_set_reference():
    graphs = [g for d in Dialect for n in range(5) for g in enumerate_graphs(n, d)]
    rng = random.Random(61)
    for _ in range(1500):
        n = rng.randint(5, 9)
        g = random_graph(rng, n, biarrow_ok=True)
        # Half the sample keeps at most one edge per pair, so that some of
        # it is a chain graph.
        graphs.append(g if rng.random() < 0.5 else
                      MixedGraph(n, g.arrows, g.lines - {tuple(sorted(e)) for e in g.arrows},
                                 g.biarrows))
    verdicts = [g.is_amp_cg() for g in graphs]
    assert verdicts == [_is_amp_cg_reference(g) for g in graphs]
    assert 100 < sum(verdicts[-1500:]) < 1400  # both verdicts in the sample


# -- text format --------------------------------------------------------------


def test_serialize_uses_labels(double_edge3):
    text = serialize(double_edge3)
    assert text == "nodes A B D\narrow A B\narrow B D\nline B D\n"
    back = parse(text)
    assert back == double_edge3
    assert back.node_names == ("A", "B", "D")


def test_parse_accepts_indices_and_comments():
    g = parse("# three nodes\nnodes 3\narrow 1 2\nline 2 3\n")
    assert g == MixedGraph(3, arrows={(1, 2)}, lines={(2, 3)})
    assert g.node_names is None


def test_parse_rejects_numeric_labels():
    with pytest.raises(ParseError):
        parse("nodes A 2 C\n")


@pytest.mark.parametrize("line", ["nodes a,b c", "nodes A 1,2", "nodes , A"])
def test_parse_refuses_a_label_holding_a_comma_by_name(line):
    # Node lists on the command line and in scripts split on commas, so such
    # a label could never be named there.
    label = next(tok for tok in line.split() if "," in tok)
    with pytest.raises(ParseError) as err:
        parse(f"# labels\n{line}\n")
    assert str(err.value) == f"line 2: label {label!r} holds a comma, which splits node lists"


def test_parse_rejects_unknown_label():
    with pytest.raises(ParseError) as err:
        parse("nodes A B\narrow A C\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("nodes 2\nedge 1 2\n")
    with pytest.raises(ParseError):
        parse("arrow 1 2\n")  # no nodes line first


@pytest.mark.parametrize("text,line_no,message", [
    ("nodes 2\nnodes 2\n", 2, "line 2: duplicate nodes line"),
    ("# no count\nnodes\n", 2, "line 2: nodes line needs a count or labels"),
    ("nodes A B A\n", 1, "line 1: duplicate node label"),
    ("# nothing but comments\n\n", None, "missing nodes line"),
], ids=["duplicate-nodes", "empty-nodes", "duplicate-label", "no-nodes"])
def test_parse_refusals_are_pinned(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == line_no
    assert str(err.value) == message


def test_parse_caps_the_declared_node_count():
    # Each is refused before a graph is built, so none takes measurable time.
    with pytest.raises(ParseError) as err:
        parse("nodes 1000000000000\n")
    assert str(err.value) == "line 1: 1000000000000 nodes exceed the cap of 100000"
    with pytest.raises(ParseError) as err:
        parse("# labels\nnodes " + " ".join(f"v{i}" for i in range(100_001)) + "\n")
    assert str(err.value) == "line 2: 100001 nodes exceed the cap of 100000"


def _reads_back(label: str) -> bool:
    # Whether a nodes line declaring the one label gives that label back.
    try:
        return parse(f"nodes {label}\n").node_names == (label,)
    except ParseError:
        return False


@given(st.integers(0, 10**6), st.integers(1, 6),
       st.none() | st.lists(st.text(min_size=1, max_size=4), min_size=6, max_size=6,
                            unique=True))
def test_parse_serialize_round_trip(seed, n, labels):
    g = random_graph(random.Random(seed), n, biarrow_ok=True)
    if labels is not None:
        try:
            g = MixedGraph(n, g.arrows, g.lines, g.biarrows, labels[:n])
        except GraphValidationError:
            assert not all(map(_reads_back, labels[:n]))
            return
    back = parse(serialize(g))
    assert back == g and back.node_names == g.node_names


def _refused(label: str) -> bool:
    try:
        MixedGraph(1, node_names=(label,))
    except GraphValidationError as err:
        assert str(err) == f"node label {label!r} cannot be read back from a graph file"
        return True
    return False


@settings(max_examples=300)
@given(st.text(max_size=4))
def test_labels_are_refused_exactly_when_a_nodes_line_cannot_read_them_back(label):
    assert _refused(label) is not _reads_back(label)


@pytest.mark.parametrize("label,refused", [
    ("a b", True), ("", True), ("x#y", True), ("3", True), ("-3", True), ("--2", True),
    ("\u00b2", True), ("a\u2028b", True), ("a\x1fb", True),
    ("a,b", True), ("eps_A", False), ("F_A'", False), ("-", False),
])
def test_a_label_is_refused_where_it_enters_when_a_nodes_line_cannot_read_it(label, refused):
    assert _refused(label) is refused
    assert _reads_back(label) is not refused


# -- the node rule ------------------------------------------------------------

_G = MixedGraph(3, arrows={(1, 2)}, lines={(2, 3)})
_SIGMA = implied_covariance(random_sem(_G, 0))

# Each entry point of the package that reads nodes from its caller, called
# with the node k in one place; k = 1 is a valid node everywhere.
NODE_ENTRY_POINTS = {
    "MixedGraph": lambda k: MixedGraph(3, arrows={(k, 2)}),
    "node_label": lambda k: _G.node_label(k),
    "node_mask": lambda k: _G.parents([k, 2]),
    "ancestors": lambda k: _G.ancestors([k]),
    "set_index": lambda k: set_index([k, 3]),
    "set_members": lambda k: set_members(k, 3),
    "set_members.n": lambda k: set_members(0, k),
    "SeparationQuery": lambda k: separated(_G, SeparationQuery({k}, {3}, {2})),
    "CiStatement.regime": lambda k: CiStatement({2}, {3}, regime=k),
    "markov_blanket": lambda k: markov_blanket(_G, {k, 2}, k),
    "intervene": lambda k: intervene(_G, [k]),
    "rule_applicable": lambda k: rule_applicable(_G, 1, [], [3], [k], [2]),
    "with_regime_nodes": lambda k: with_regime_nodes(_G, [k, 3]),
    "Constraint.x": lambda k: Constraint("indep", k, 3),
    "Constraint.cond": lambda k: Constraint("indep", 2, 3, {k}),
    "Constraint.regime": lambda k: Constraint("indep", 2, 3, regime=k),
    "LearnProblem.ordering": lambda k: LearnProblem(3, ordering=(k, 2, 3)),
    "LearnProblem.prior": lambda k: LearnProblem(3, forbidden={("arrow", k, 3)}),
    "LinearSem": lambda k: LinearSem(_G, {(k, 2): 0.5}, np.eye(3)).beta,
    "ci_test": lambda k: ci_test(_SIGMA, k, 3, [2]),
    "ci_test.z": lambda k: ci_test(_SIGMA, 3, 2, [k]),
    "determined_closure": lambda k: determined_closure(magnify(_G), [k]),
}


@pytest.mark.parametrize("call", NODE_ENTRY_POINTS.values(), ids=NODE_ENTRY_POINTS)
def test_every_entry_point_reads_nodes_by_one_rule(call):
    # A node is whatever operator.index accepts: numpy integers are the
    # ints they hold, while floats (even 2.0) and strings are refused.
    assert call(np.int64(1)) == call(1)
    for bad in (1.5, 2.0, "1"):
        with pytest.raises(NodeOutOfRangeError, match="is not an integer"):
            call(bad)


@pytest.mark.parametrize("call", [
    lambda g: intervene(g, {9, 16}),
    lambda g: g.parents({9, 16}),
    lambda g: markov_blanket(g, {1, 9, 16}, 1),
    lambda g: determined_closure(magnify(g), {9, 16}),
    lambda g: rule_applicable(g, 1, [], [1], {9, 16}, []),
    lambda g: LearnProblem(3, (Constraint("indep", 1, 2, {9, 16}),)),
    lambda g: separated_with_determinism(magnify(g), SeparationQuery({1}, {2}, {9, 16})),
])
def test_of_several_bad_nodes_the_lowest_is_named(call):
    # {9, 16} iterates as 16, 9: the name must not follow hash-slot order.
    with pytest.raises(NodeOutOfRangeError, match=r"^node 9 out of range"):
        call(MixedGraph(3))
