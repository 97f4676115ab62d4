"""Separation in mixed graphs, decided four equivalent ways.

A node C strictly inside a walk is a *collider* when one side points an
arrowhead into C and the other side meets C with an arrowhead or a line
(``A -> C <- B``, ``A -> C - B`` or, with biarrows, head-to-head).  Meeting
C through a tail, or through lines on both sides, makes it a non-collider.

The four decision procedures:

1. simple paths; colliders must be ancestors of Z, non-colliders must
   avoid Z except that a line-line non-collider with a parent outside Z
   may be conditioned on -- a depth-first search whose stack entries carry
   lanes as in 2, one bit per z; a call refuses past ``MAX_PATH_STEPS`` pops;
2. walks that may revisit nodes; colliders must be in Z, non-colliders
   must avoid Z, no exceptions -- decided by a frontier fixpoint over
   three node masks, the nodes a walk reaches with each end mark (line,
   head, tail).  x leaves every way, as an endpoint; a ``head`` seed
   starts walks that entered a node through an arrowhead (the rule
   premises of :mod:`docalc`).  Its lane form, ``_route_lanes``, answers
   every conditioning set of one (x, y) pair at once, one bit (lane) per
   set and three lane ints per node;
3. reachability in the augmented graph of the extended subgraph over
   x + y + z;
4. as 3 but with the undirected part marginalised onto the ancestor set.

``_separating_masks``, the one kernel table, gives the s inside ``rest``
for which z + s separates x and y; :func:`separated` asks it with
``rest = 0``, the singleton sweeps once per (x, y) pair and criterion.

A query is its node masks, checked once where it enters; the package builds
its own queries (statements, singleton sweeps, rule premises) from masks,
and asking a graph costs one shift for the range check.  Graphs memoise the
augmented graph of criteria 3 and 4 per criterion and ancestor set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import and_
from typing import Iterable, Iterator

from .errors import MalformedQueryError, ProblemTooLargeError, UnsupportedDialectError
from .graph import (MAX_GRAPH_NODES, Dialect, MixedGraph, _bits, _components, _node_index,
                    _restrict, _spread, _submasks, _undirected, _union, set_index)

# End marks: how a walk most recently arrived at a node.
END_LINE, END_HEAD, END_TAIL = 0, 1, 2


@dataclass(frozen=True, init=False, eq=False)
class SeparationQuery:
    """Disjoint node sets x, y (non-empty) and a conditioning set z, held as
    masks ``xm``, ``ym``, ``zm`` (node i is bit i - 1) that equality and
    hashing compare; the sets are checked once and are views built on first
    access.  A node that is not an integer is refused here; a set naming a
    node outside ``1..MAX_GRAPH_NODES`` gets the mask -1, and a graph asked
    about it reads the set itself, as do equality and hashing."""

    xm: int
    ym: int
    zm: int

    def __init__(self, x, y, z=frozenset()):
        x, y, z = sets = [frozenset(map(_node_index, s)) for s in (x, y, z)]
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

    def _key(self) -> tuple:
        masks = self.xm, self.ym, self.zm
        return masks if min(masks) >= 0 else (self.x, self.y, self.z)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    x = cached_property(lambda q: frozenset(_bits(q.xm)))
    y = cached_property(lambda q: frozenset(_bits(q.ym)))
    z = cached_property(lambda q: frozenset(_bits(q.zm)))


MAX_SWEEP_NODES = 16
"""The most nodes a singleton sweep accepts: it asks n(n-1)/2 * 2^(n-2)
questions, about 2 M at n = 16.  ``markov-verify``, whose generators walk up
to every subset of the nodes, shares the cap."""


def _refuse_past_sweep_cap(n: int, what: str):
    if n > MAX_SWEEP_NODES:
        raise ProblemTooLargeError(f"n={n} exceeds the {what} cap of {MAX_SWEEP_NODES}")


def _singleton_pairs(n: int) -> Iterator[tuple[int, int, int]]:
    """The masks ``(xm, ym, rest)`` of every unordered singleton pair ``x < y``
    over nodes 1..n in lexicographic order, with ``rest`` the other nodes.
    An n above ``MAX_SWEEP_NODES`` is refused at the call, before any query."""
    _refuse_past_sweep_cap(n, "singleton sweep")
    full = (1 << n) - 1
    return ((xm, ym, full & ~xm & ~ym)
            for xm, ym in combinations([1 << i for i in range(n)], 2))


def _query_masks(g: MixedGraph, q: SeparationQuery):
    """The query's masks, range-checked against g by one shift.  When that
    fails, ``node_mask`` names the lowest node of x, y or z outside ``1..n``;
    if there is none, g has more than ``MAX_GRAPH_NODES`` nodes and a mask
    of -1 is built again from its set."""
    if (q.xm | q.ym | q.zm) >> g.n:
        g.node_mask(q.x | q.y | q.z)
        return g.node_mask(q.x), g.node_mask(q.y), g.node_mask(q.z)
    return q.xm, q.ym, q.zm


def _reject_biarrows(g: MixedGraph, what: str, *args):
    # The one refusal of biarrows by operations defined only with lines.  The
    # name of the operation is ``what % args``, formatted only on refusal.
    if g.dialect is Dialect.ORIGINAL:
        raise UnsupportedDialectError(f"{what % args} is not defined for bidirected edges")


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


def _route_connected(adj, xm: int, ym: int, zm: int, head: int = 0) -> bool:
    pa, ch, ne, bi = adj
    reached_line, reached_head, reached_tail = 0, head, 0
    # The nodes a walk may leave through a line, along an arrow, against an
    # arrow and through a biarrow.  x leaves every way, as an endpoint; head,
    # nodes outside y entered through an arrowhead, by the collider rules.
    by_line = by_pa = by_bi = xm | (head & zm)
    by_arrow = xm | (head & ~zm)
    while True:
        # The nodes first reached with each end mark: line, head, tail.
        fl = fh = ft = 0
        todo = by_line | by_arrow | by_pa  # by_bi lies in by_line
        while todo:
            vb = todo & -todo
            todo ^= vb
            v = vb.bit_length()
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


def _lanes(rest: int, size: int, zm: int) -> tuple[int, list[int]]:
    """``full``, one bit (lane) per submask of ``rest``, and ``in_z``: for the
    j-th node of ``rest`` the lanes whose submask holds it (the periodic
    pattern of bit j of the lane number), for a node of ``zm`` every lane, else 0."""
    full = (1 << (1 << rest.bit_count())) - 1
    in_z = [0] * size
    for v in _bits(zm):
        in_z[v] = full
    width = 1
    while rest:
        vb = rest & -rest
        rest ^= vb
        in_z[vb.bit_length()] = full // ((1 << 2 * width) - 1) * (((1 << width) - 1) << width)
        width <<= 1
    return full, in_z


def _route_lanes(adj, xm: int, ym: int, zm: int, rest: int) -> int:
    """Criterion 2 for every conditioning set zm + s, s inside ``rest``, at once.

    Bit k of the result is set iff x and y are connected given zm plus the
    k-th submask of ``rest`` in ``_submasks`` (increasing) order: lane k.  Each
    node holds three lane ints, ``line[v]``, ``head[v]`` and ``tail[v]``,
    the lanes in which a walk has reached v with that end mark.  x is seeded
    as a tail arrival in every lane: outside z that may leave every way, an
    endpoint's freedom.
    """
    pa, ch, ne, bi = adj
    size = len(pa)
    full, in_z = _lanes(rest, size, zm)
    line, head, tail = [0] * size, [0] * size, [0] * size
    for v in _bits(xm):
        tail[v] = full
    connected = 0
    hit = xm
    while hit:
        # Each node that gained lanes sends all its lanes on; a target keeps
        # the new ones and joins hit, the nodes to run next round.
        todo, hit = hit, 0
        while todo:
            vb = todo & -todo
            todo ^= vb
            v = vb.bit_length()
            zl, fl, fh, ft = in_z[v], line[v], head[v], tail[v]
            # The collider rules of _route_connected, lane by lane.
            for lanes, targets, reached in (((fh & zl) | ((fl | ft) & ~zl), ne[v], line),
                                            ((fl | fh | ft) & ~zl, ch[v], head),
                                            ((fh & zl) | (ft & ~zl), bi[v], head),
                                            (((fl | fh) & zl) | (ft & ~zl), pa[v], tail)):
                while lanes and targets:
                    wb = targets & -targets
                    targets ^= wb
                    w = wb.bit_length()
                    new = lanes & ~reached[w]
                    if new:
                        reached[w] |= new
                        if wb & ym:
                            # A walk that reaches y has connected its lanes; it stops there.
                            connected |= new
                            if connected == full:
                                return full
                        else:
                            hit |= wb
    return connected


# -- criterion 1: simple paths ----------------------------------------------


MAX_PATH_STEPS = 1 << 20
"""The most stack pops one call of criterion 1's search may take, a single
question or a whole sweep pair.  On a dense line component it tries every
simple path, about 10x more per added node, so it refuses."""


def _path_connected(g: MixedGraph, xm: int, ym: int, zm: int, rest: int) -> int:
    """Criterion 1 for every conditioning set zm + s, s inside ``rest``: bit
    k is set iff x and y are connected given zm plus the k-th submask of
    ``rest``, as in ``_route_lanes``, and rest = 0 asks a single question.
    One depth-first search over simple paths; each stack entry carries the
    lanes in which its path is still open."""
    pa, ch, ne, _bi = g._adj
    full, in_z = _lanes(rest, len(pa), zm)
    anm = g._an_mask(zm)
    # an_z[v]: the lanes whose part of rest holds v or a descendant of v.
    an_z = [0] * len(pa)
    for w in _bits(rest):
        for v in _bits(g._an_mask(1 << (w - 1))):
            an_z[v] |= in_z[w]
    # A start node has no end mark (None): it leaves every way, even from z.
    stack = [(s, None, 1 << (s - 1), full) for s in _bits(xm)]
    connected = 0
    budget = MAX_PATH_STEPS
    while stack:
        budget -= 1
        if budget < 0:
            raise ProblemTooLargeError(f"criterion 1 ran past its {MAX_PATH_STEPS}-step budget")
        v, mark, vis, lanes = stack.pop()
        lanes &= ~connected  # a branch dies once all its lanes are connected
        # A non-collider passes outside z (in_z[v]: the lanes whose z holds v),
        # a collider in An(z), and a line-line one in z where a parent is not.
        line = arrow = up = lanes if mark is None else lanes & ~in_z[v]
        if mark == END_HEAD or mark == END_LINE:
            up = lanes if anm >> (v - 1) & 1 else lanes & an_z[v]
            if mark == END_HEAD:
                line = up
            elif lanes & in_z[v]:
                line |= lanes & ~reduce(and_, (in_z[w] for w in _bits(pa[v])), full)
        for targets, end, open_ in ((ne[v], END_LINE, line), (ch[v], END_HEAD, arrow),
                                    (pa[v], END_TAIL, up)):
            if open_ and targets:
                if targets & ym:
                    connected |= open_
                    if connected == full:
                        return full
                    continue
                targets &= ~vis
                while targets:
                    wb = targets & -targets
                    targets ^= wb
                    stack.append((wb.bit_length(), end, vis | wb, open_))
    return connected


# -- subgraph constructions ---------------------------------------------------


def extended_subgraph(g: MixedGraph, nodes: Iterable[int]) -> MixedGraph:
    """Arrows and lines inside the ancestral closure of ``nodes`` plus all
    lines inside that closure's line components."""
    _reject_biarrows(g, "extended subgraph")
    pa_e, ch_e, ne_e = _extended_masks(g, g._an_mask(g.node_mask(nodes)))
    return MixedGraph._from_masks(g.n, (pa_e, ch_e, ne_e, [0] * (g.n + 1)),
                                  g.node_names)


def _extended_masks(g: MixedGraph, anm: int):
    # The extended subgraph's (pa, ch, ne) over the ancestral set anm, which
    # the caller closes.
    pa, ch, ne, _bi = g._adj
    return _restrict(pa, anm), _restrict(ch, anm), _restrict(ne, g._cc_mask(anm))


def augmented_graph(g: MixedGraph) -> MixedGraph:
    """The undirected graph joining every collider-connected pair.

    Two distinct nodes are joined when they are adjacent, when they both
    point a head-or-line at a common node with at least one arrowhead
    (``A -> C <- B`` or ``A -> C - B``), or when they point arrows at the
    two ends of a line (``A -> C - D <- B``).
    """
    _reject_biarrows(g, "augmented graph")
    return _undirected(g, _augmented_masks(g._adj[:3], g.n))


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
    ne, keep = h._adj[2], h.node_mask(nodes)
    return _undirected(h, _marginal_masks(ne, keep, _union(ne, keep) & ~keep))


def _marginal_masks(ne, keep: int, drop: int):
    # drop must hold every dropped node with a kept neighbour: the component
    # walk starts from them, and their rows are the dropped rows that
    # ``m & keep`` leaves non-zero.  A dropped component that misses drop has
    # no kept border, so it adds no edge.
    out = [m & keep for m in ne]
    for v in _bits(drop):
        out[v] = 0
    # Each component of dropped nodes, with the kept nodes on its border;
    # every border pair becomes an edge.
    for comp in _components(ne, drop, keep):
        border = comp & keep
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
            ne_e = _marginal_masks(ne_e, anm, _union(ne_e, anm) & ~anm)
        aug = cache[criterion, anm] = tuple(_augmented_masks((pa_e, ch_e, ne_e), g.n))
    return aug


# -- the kernel table ---------------------------------------------------------


def _separating_masks(g: MixedGraph, criterion: int, xm: int, ym: int, zm: int,
                      rest: int) -> list[int]:
    """The s inside ``rest`` for which zm + s separates x and y under the
    criterion, in ``_submasks`` order, on trusted masks; the caller checks the
    dialect.  For one question (``rest = 0``) criterion 2's scalar kernel beats one lane."""
    if criterion == 1:
        lanes = _path_connected(g, xm, ym, zm, rest)
    elif criterion == 2 and rest:
        lanes = _route_lanes(g._adj, xm, ym, zm, rest)
    elif criterion == 2:
        return [] if _route_connected(g._adj, xm, ym, zm) else [0]
    else:
        return [s for s in _submasks(rest) if not _spread(
            _moral_masks(g, xm | ym | zm | s, criterion), xm, zm | s, ym) & ym]
    return [s for k, s in enumerate(_submasks(rest)) if not lanes >> k & 1]


def separated(g: MixedGraph, q: SeparationQuery, criterion: int = 2) -> bool:
    """Decide whether x and y are separated given z.

    All four agree on valid graphs; criterion 2, the engine of choice, alone
    accepts biarrows.  Criterion 1's open paths have colliders in An(z) and
    non-colliders outside z, save line-line ones with a parent outside z.
    """
    if criterion not in (1, 2, 3, 4):
        raise ValueError(f"criterion must be 1..4, got {criterion!r}")
    if criterion == 1:
        _reject_biarrows(g, "path separation")
    elif criterion != 2:
        _reject_biarrows(g, "criterion %d", criterion)
    return bool(_separating_masks(g, criterion, *_query_masks(g, q), 0))
