"""Separation in mixed graphs, decided four equivalent ways.

A node C strictly inside a walk is a *collider* when one side points an
arrowhead into C and the other side meets C with an arrowhead or a line
(``A -> C <- B``, ``A -> C - B`` or, with biarrows, head-to-head).  Meeting
C through a tail, or through lines on both sides, makes it a non-collider.

The four decision procedures:

1. simple paths; colliders must be ancestors of Z, non-colliders must
   avoid Z except that a line-line non-collider with a parent outside Z
   may be conditioned on;
2. walks that may revisit nodes; colliders must be in Z, non-colliders
   must avoid Z, no exceptions -- decided by a frontier fixpoint over
   three node masks, the nodes a walk reaches with each end mark (line,
   head, tail), in the style of the closures on the graph's masks;
3. reachability in the augmented graph of the extended subgraph over
   x + y + z;
4. as 3 but with the undirected part marginalised onto the ancestor set.

Criterion 2 also accepts graphs with bidirected edges; the others reject
them.

A query is its node masks, checked once where it enters; the package builds
its own queries (statements, singleton sweeps, rule premises) from masks,
and asking a graph costs one shift for the range check.  Graphs memoise the
augmented graph of criteria 3 and 4 per criterion and ancestor set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import MalformedQueryError, UnsupportedDialectError
from .graph import MAX_GRAPH_NODES, Dialect, MixedGraph, _bits, _spread, _union, set_index

# End marks: how a walk most recently arrived at a node.
END_LINE, END_HEAD, END_TAIL = 0, 1, 2


@dataclass(frozen=True, init=False)
class SeparationQuery:
    """Disjoint node sets x, y (non-empty) and a conditioning set z, held as
    masks ``xm``, ``ym``, ``zm`` (node i is bit i - 1) that equality and
    hashing compare; the sets are checked once and are views built on first
    access.  A set naming a node outside ``1..MAX_GRAPH_NODES`` gets the
    mask -1, which every graph refuses."""

    xm: int
    ym: int
    zm: int

    def __init__(self, x, y, z=frozenset()):
        x, y, z = sets = [frozenset(int(i) for i in s) for s in (x, y, z)]
        if not x or not y:
            raise MalformedQueryError("x and y must be non-empty")
        if x & y or x & z or y & z:
            raise MalformedQueryError("x, y and z must be pairwise disjoint")
        xm, ym, zm = (set_index(s) if 1 <= min(s, default=1) and max(s, default=1)
                      <= MAX_GRAPH_NODES else -1 for s in sets)
        self.__dict__.update(x=x, y=y, z=z, xm=xm, ym=ym, zm=zm)

    @classmethod
    def _from_masks(cls, xm: int, ym: int, zm: int, **fields):
        """Trusted: a query built from masks the package holds."""
        q = object.__new__(cls)
        q.__dict__.update(xm=xm, ym=ym, zm=zm, **fields)
        return q

    x = cached_property(lambda q: frozenset(_bits(q.xm)))
    y = cached_property(lambda q: frozenset(_bits(q.ym)))
    z = cached_property(lambda q: frozenset(_bits(q.zm)))


def singleton_queries(n: int) -> Iterator[tuple[int, int, frozenset]]:
    """Every unordered singleton pair ``x < y`` over nodes 1..n with every
    conditioning set drawn from the remaining nodes."""
    for x, y in combinations(range(1, n + 1), 2):
        rest = [v for v in range(1, n + 1) if v != x and v != y]
        for pick in range(1 << len(rest)):
            yield x, y, frozenset(rest[i] for i in range(len(rest)) if pick >> i & 1)


def _query_masks(g: MixedGraph, q: SeparationQuery):
    """The query's masks, range-checked against g by one shift.  Only when
    that fails are they rebuilt node by node through ``g.node_mask``, which
    raises the ``NodeOutOfRangeError`` naming the node."""
    if (q.xm | q.ym | q.zm) >> g.n:
        return g.node_mask(q.x), g.node_mask(q.y), g.node_mask(q.z)
    return q.xm, q.ym, q.zm


def _reject_biarrows(g: MixedGraph, what: str):
    # The one refusal of biarrows by operations defined only with lines.
    if g.dialect is Dialect.ORIGINAL:
        raise UnsupportedDialectError(f"{what} is not defined for bidirected edges")


# -- criterion 2: the walk automaton ----------------------------------------


def connects_route(g: MixedGraph, q: SeparationQuery) -> bool:
    """True when some walk from x to y is open given z.

    Walks may revisit nodes, so reachability decides the question: each
    round extends the masks of nodes reached through a line, a head and a
    tail by one step.  Colliders are passable exactly inside z,
    non-colliders exactly outside z.
    """
    xm, ym, zm = _query_masks(g, q)
    return _route_connected(g._adj, xm, ym, zm)


def _route_connected(adj, xm: int, ym: int, zm: int) -> bool:
    pa, ch, ne, bi = adj
    reached_line = reached_head = reached_tail = 0
    # The nodes a walk may leave through a line, along an arrow, against an
    # arrow and through a biarrow.  Endpoints carry no collider status, so
    # every first step out of x is allowed.
    by_line = by_arrow = by_pa = by_bi = xm
    while True:
        # The nodes first reached with each end mark: line, head, tail.
        fl = fh = ft = 0
        for v in _bits(by_line | by_arrow | by_pa):  # by_bi lies in by_line
            vb = 1 << (v - 1)
            if by_line & vb:
                fl |= ne[v]
            if by_arrow & vb:
                fh |= ch[v]
            if by_bi & vb:
                fh |= bi[v]
            if by_pa & vb:
                ft |= pa[v]
        fl &= ~reached_line
        fh &= ~reached_head
        ft &= ~reached_tail
        if not fl | fh | ft:
            return False
        if (fl | fh | ft) & ym:
            return True
        reached_line |= fl
        reached_head |= fh
        reached_tail |= ft
        # A non-collider passes outside z, a collider inside.  Leaving along
        # an arrow is never a collider; leaving against an arrow or through a
        # biarrow is one unless the walk arrived through a tail; leaving
        # through a line is one iff it arrived through a head.  A line
        # arrival cannot meet a biarrow in a valid graph.
        by_line = (fh & zm) | ((fl | ft) & ~zm)
        by_arrow = (fl | fh | ft) & ~zm
        by_pa = ((fl | fh) & zm) | (ft & ~zm)
        by_bi = (fh & zm) | (ft & ~zm)


# -- criterion 1: simple paths ----------------------------------------------


def connects_path(g: MixedGraph, q: SeparationQuery) -> bool:
    """True when some simple path from x to y is open given z.

    Colliders must be ancestors of z; a non-collider must avoid z unless
    both its path edges are lines and it keeps a parent outside z.
    Intended as the small-n oracle for :func:`connects_route`.
    """
    _reject_biarrows(g, "path separation")
    xm, ym, zm = _query_masks(g, q)
    return _path_connected(g._adj, xm, ym, zm, g._an_mask(zm))


def _path_connected(adj, xm: int, ym: int, dtm: int, anm: int) -> bool:
    # dtm: the effective conditioning mask; anm: its ancestral closure,
    # which is where colliders are passable.  A start node has no end mark
    # (None) and no collider status, so it may leave every way.
    pa, ch, ne, _bi = adj
    stack = [(s, None, 1 << (s - 1)) for s in _bits(xm)]
    while stack:
        v, mark, vis = stack.pop()
        vb = 1 << (v - 1)
        in_dt = dtm & vb
        passes_collider = anm & vb
        # line out of v
        if mark is None or (passes_collider if mark == END_HEAD
                            else (not in_dt or (mark == END_LINE and pa[v] & ~dtm))):
            targets = ne[v]
            if targets & ym:
                return True
            for w in _bits(targets & ~vis):
                stack.append((w, END_LINE, vis | (1 << (w - 1))))
        # arrow out of v
        if mark is None or not in_dt:
            targets = ch[v]
            if targets & ym:
                return True
            for w in _bits(targets & ~vis):
                stack.append((w, END_HEAD, vis | (1 << (w - 1))))
        # against an arrow into v
        if mark is None or ((not in_dt) if mark == END_TAIL else passes_collider):
            targets = pa[v]
            if targets & ym:
                return True
            for w in _bits(targets & ~vis):
                stack.append((w, END_TAIL, vis | (1 << (w - 1))))
    return False


# -- subgraph constructions ---------------------------------------------------


def extended_node_set(g: MixedGraph, nodes: Iterable[int]) -> frozenset[int]:
    """Nodes of the extended subgraph: the line components of the
    ancestral closure of ``nodes``."""
    return g.mask_nodes(g._cc_mask(g._an_mask(g.node_mask(nodes))))


def extended_subgraph(g: MixedGraph, nodes: Iterable[int]) -> MixedGraph:
    """Arrows and lines inside the ancestral closure of ``nodes`` plus all
    lines inside that closure's line components."""
    _reject_biarrows(g, "extended subgraph")
    pa_e, ch_e, ne_e = _extended_masks(g, g.node_mask(nodes))
    return MixedGraph._from_masks(g.n, (pa_e, ch_e, ne_e, [0] * (g.n + 1)),
                                  g.node_names)


def _extended_masks(g: MixedGraph, smask: int):
    pa, ch, ne, _bi = g._adj
    anm = g._an_mask(smask)
    ccm = g._cc_mask(anm)
    pa_e = [0] * (g.n + 1)
    ch_e = [0] * (g.n + 1)
    ne_e = [0] * (g.n + 1)
    for v in _bits(anm):
        pa_e[v] = pa[v] & anm
        ch_e[v] = ch[v] & anm
    for v in _bits(ccm):
        ne_e[v] = ne[v] & ccm
    return pa_e, ch_e, ne_e


def augmented_graph(g: MixedGraph) -> MixedGraph:
    """The undirected graph joining every collider-connected pair.

    Two distinct nodes are joined when they are adjacent, when they both
    point a head-or-line at a common node with at least one arrowhead
    (``A -> C <- B`` or ``A -> C - B``), or when they point arrows at the
    two ends of a line (``A -> C - D <- B``).
    """
    _reject_biarrows(g, "augmented graph")
    return _undirected(g, _augmented_masks(g._adj[:3], g.n))


def _undirected(g: MixedGraph, ne) -> MixedGraph:
    zero = [0] * (g.n + 1)
    return MixedGraph._from_masks(g.n, (zero, zero, ne, zero), g.node_names)


def _augmented_masks(adj3, n: int):
    # The blanket of every node, 0 for a node without an edge in adj3.
    pa, ch, ne = adj3
    return [0] + [_blanket_mask(adj3, v) if pa[v] | ch[v] | ne[v] else 0
                  for v in range(1, n + 1)]


def _blanket_mask(adj3, b: int) -> int:
    """Node b's blanket, its row of the augmented graph: ch(b), ne(b + ch)
    and pa(b + ch + ne(b + ch)), without b.  Adjacency gives pa, ch, ne;
    ``A -> C <- B`` and ``A -> C - B`` give pa(ch), ne(ch), pa(ne); and
    ``A -> C - D <- B`` gives pa(ne(ch))."""
    pa, ch, ne = adj3
    bb = 1 << (b - 1)
    chm = ch[b]
    nem = _union(ne, bb | chm)
    pam = _union(pa, bb | chm | nem)
    return (chm | nem | pam) & ~bb


def marginal_graph(h: MixedGraph, nodes: Iterable[int]) -> MixedGraph:
    """Marginalise an undirected graph onto ``nodes``.

    Two kept nodes are joined when they are joined in ``h`` or connected
    by a path running entirely through dropped nodes.
    """
    if any(h._adj[0]) or any(h._adj[3]):
        raise UnsupportedDialectError("marginal graph expects an undirected graph")
    return _undirected(h, _marginal_masks(h._adj[2], h.n, h.node_mask(nodes)))


def _marginal_masks(ne, n: int, xm: int):
    out = [0] * (n + 1)
    for v in _bits(xm):
        out[v] = ne[v] & xm
    todo = ((1 << n) - 1) & ~xm
    while todo:
        # The component of dropped nodes holding the lowest one left, with
        # the kept nodes on its border; every border pair becomes an edge.
        comp = _spread(ne, todo & -todo, xm)
        todo &= ~comp
        border = comp & xm
        for a in _bits(border):
            out[a] |= border & ~(1 << (a - 1))
    return out


def _moral_masks(g: MixedGraph, smask: int, criterion: int) -> tuple:
    """Line masks of the augmented graph of the extended subgraph over
    ``smask``; for criterion 4 the extended subgraph's lines are first
    marginalised onto the ancestor set.

    Both depend on ``smask`` only through its ancestor set, so the graph
    memoises them per ``(criterion, ancestor set)``.
    """
    anm = g._an_mask(smask)
    cache = g._moral_cache
    aug = cache.get((criterion, anm))
    if aug is None:
        pa_e, ch_e, ne_e = _extended_masks(g, anm)
        if criterion == 4:
            ne_e = _marginal_masks(ne_e, g.n, anm)
        aug = cache[criterion, anm] = tuple(_augmented_masks((pa_e, ch_e, ne_e), g.n))
    return aug


# -- the four-way dispatcher --------------------------------------------------


def separated(g: MixedGraph, q: SeparationQuery, criterion: int = 2) -> bool:
    """Decide whether x and y are separated given z.

    All four criteria agree on valid graphs; criterion 2 is the engine of
    choice and the only one defined for bidirected edges.
    """
    if criterion == 2:
        return not connects_route(g, q)
    if criterion == 1:
        return not connects_path(g, q)
    if criterion not in (3, 4):
        raise ValueError(f"criterion must be 1..4, got {criterion!r}")
    _reject_biarrows(g, f"criterion {criterion}")
    xm, ym, zm = _query_masks(g, q)
    return not _spread(_moral_masks(g, xm | ym | zm, criterion), xm, zm, ym) & ym


def separated_with_determinism(
    g: MixedGraph,
    q: SeparationQuery,
    det: Callable[[frozenset], frozenset],
) -> bool:
    """Path separation where conditioning extends to everything z determines.

    ``det`` maps a node set to the set it functionally determines; it must
    be extensive (``z <= det(z)``).  Colliders must be ancestors of
    ``det(z)``, non-colliders must avoid it up to the usual line-line
    escape.
    """
    _reject_biarrows(g, "path separation")
    xm, ym, zm = _query_masks(g, q)
    dt = det(q.z)
    dtm = g.node_mask(dt)
    if zm & ~dtm:
        raise ValueError("det must be extensive: z not contained in det(z)")
    return not _path_connected(g._adj, xm, ym, dtm, g._an_mask(dtm))
