"""Mixed graphs over nodes 1..n with directed, undirected and bidirected edges.

Two dialects are supported.  An *alternative* graph mixes arrows with
undirected edges (lines); an *original* graph mixes arrows with bidirected
edges (biarrows).  Lines and biarrows never occur together.  The directed
part is always acyclic and antisymmetric, and a pair of nodes carries at
most two edges (an arrow plus a line or biarrow).

Node sets are plain ``frozenset`` objects at the API surface.  Every node a
caller hands the package is read by one rule: :func:`_node_index` takes
``operator.index(i)`` (ints and numpy integers pass, floats and strings are
refused) and :func:`_node_mask` checks a set against ``1..n`` before it
builds the mask, naming the lowest bad node; both raise
:class:`NodeOutOfRangeError`.  Text goes straight to masks: each text input
keeps one token table, :class:`_NodeTokens`, which resolves a node token
(an index or a label) and checks its range the first time it appears;
later occurrences are dict hits.  The canonical integer encoding (node
``i`` occupies bit ``i - 1``) used by the constraint formats is exposed
through :func:`set_index` and :func:`set_members`; queries, statements and
script steps store their sets in it.

Invariants are checked once, where input enters the package.  The public
constructor ``MixedGraph(...)`` and the learner's ``parse_atom_line`` turn
edge pairs into per-node adjacency masks and validate those; :func:`parse`
sets the mask bits as it reads each edge line and validates the masks once
the text is read.  The masks are the graph: every engine reads them, and
the edge sets ``arrows``, ``lines`` and ``biarrows`` are views built from
them on first access; :func:`serialize` reads the masks.  A graph the
package derives from a valid one (an intervention, a subgraph, an
augmented or marginal graph, a magnified graph, an enumerated candidate)
is built from masks by ``MixedGraph._from_masks``, which trusts its caller
and stores them as they are.

:func:`_spread` is the one reachability function over the masks: the
closures, criteria 3 and 4 and the marginalisation of lines all call it.
The subset walk, row restriction and component walk the engines share
live beside it, as does the lines-only graph.
"""

from __future__ import annotations

import enum
import heapq
import operator
import unicodedata
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DirectedCycleError,
    DoubleArrowError,
    DoubleEdgeError,
    GraphValidationError,
    LineBiarrowMixError,
    NodeOutOfRangeError,
    ParseError,
    SelfEdgeError,
)


MAX_GRAPH_NODES = 100_000
"""The most nodes a graph file or a constraint file may declare.  Node sets
are n-bit masks, so :func:`parse` and the learner's ``parse_constraints``
refuse a larger count or label list before they allocate anything."""


class Dialect(enum.Enum):
    ALTERNATIVE = "alternative"  # arrows + lines
    ORIGINAL = "original"        # arrows + biarrows


def _node_index(i, n: int | None = None) -> int:
    """``operator.index(i)``, checked against ``1..n`` when n is given."""
    try:
        v = operator.index(i)
    except TypeError:
        raise NodeOutOfRangeError(f"node {i!r} is not an integer") from None
    if n is not None and not 1 <= v <= n:
        raise NodeOutOfRangeError(f"node {v} out of range 1..{n}")
    return v


def _node_mask(nodes: Iterable, n: int) -> int:
    """The mask of a node set over ``1..n``.  Of several nodes outside the
    range the lowest is named, whatever order the set iterates in."""
    mask, bad = 0, None
    for i in nodes:
        v = _node_index(i)
        if 1 <= v <= n:
            mask |= 1 << (v - 1)
        elif bad is None or v < bad:
            bad = v
    if bad is not None:
        _node_index(bad, n)
    return mask


def set_index(members: Iterable[int]) -> int:
    """Canonical integer index of a node set (node i occupies bit i - 1)."""
    index = 0
    for i in members:
        i = _node_index(i)
        if i < 1:
            raise NodeOutOfRangeError(f"node {i} out of range")
        index |= 1 << (i - 1)
    return index


def set_members(index: int, n: int) -> frozenset[int]:
    """Inverse of :func:`set_index` for sets over nodes 1..n."""
    index, n = _node_index(index), _node_index(n)
    if index < 0 or n < 0 or index >> n:
        raise NodeOutOfRangeError(f"set index {index} out of range for n={n}")
    return frozenset(_bits(index))


def _bits(mask: int) -> Iterator[int]:
    # Yields the 1-based node ids packed into a bitmask.
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _union(step, mask: int) -> int:
    """OR of ``step[v]`` over the nodes v in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= step[low.bit_length()]
        mask ^= low
    return out


def _spread(step, seed: int, block: int = 0, stop: int = 0) -> int:
    """``seed`` plus every node reachable from it through the per-node masks
    ``step``.  A node in ``block`` is reached but never left.  Once a node in
    ``stop`` is reached the walk ends early, with what it has reached so far.
    """
    cur = seed
    frontier = seed & ~block
    while frontier and not cur & stop:
        add = _union(step, frontier)
        frontier = add & ~cur & ~block
        cur |= add
    return cur


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask`` in increasing order, 0 and ``mask`` included."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _restrict(masks, keep: int) -> list[int]:
    """The per-node masks cut to the rows and bits of the nodes in ``keep``."""
    out = [0] * len(masks)
    for v in _bits(keep):
        out[v] = masks[v] & keep
    return out


def _components(step, todo: int, block: int = 0) -> Iterator[int]:
    """Each component of ``todo`` in turn, a :func:`_spread` from its lowest
    node left; it also holds the ``block`` nodes on its border."""
    while todo:
        comp = _spread(step, todo & -todo, block)
        todo &= ~comp
        yield comp


def _undirected(g: "MixedGraph", ne) -> "MixedGraph":
    """g's nodes and labels with the lines ``ne`` as the only edges."""
    zero = [0] * (g.n + 1)
    return MixedGraph._from_masks(g.n, (zero, zero, ne, zero), g.node_names)


def _check_names(names, n: int) -> tuple:
    names = tuple(str(s) for s in names)
    if len(names) != n or len(set(names)) != n:
        raise GraphValidationError("node_names must be %d distinct labels" % n)
    for s in names:
        if _unreadable_label(s):
            raise GraphValidationError(f"node label {s!r} cannot be read back from a graph file")
    return names


def _pairs(masks, n: int) -> frozenset:
    # Unordered pairs (a < b) of a symmetric per-node mask list.
    return frozenset((a, b) for a in range(1, n + 1) for b in _bits(masks[a] >> a << a))


def _peel(pa, ch, n: int) -> list[int]:
    """Place nodes one at a time, each time the smallest-index node whose
    parents are all placed.  Fewer than n nodes come back exactly when the
    arrows in ``pa`` (mirrored in ``ch``) contain a directed cycle.

    Each node keeps a count of its unplaced parents; placing a node counts
    down its children, and a node whose count reaches 0 joins a min-heap of
    ready nodes.  The cost is linear in nodes plus arrows, up to the heap's
    log factor."""
    waiting = [m.bit_count() for m in pa]
    ready = [v for v in range(1, n + 1) if not waiting[v]]  # sorted: a heap
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        kids = ch[v]
        while kids:  # _bits(ch[v]) inlined: every parsed graph is validated through here
            low = kids & -kids
            kids ^= low
            w = low.bit_length()
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, w)
    return order


class MixedGraph:
    """An immutable mixed graph over the nodes ``1..n``, stored as its
    per-node adjacency masks ``(pa, ch, ne, bi)``: parents, children, line
    and biarrow neighbours, each a list indexed by node (index 0 unused).
    ``arrows``, ``lines`` and ``biarrows`` are read-only frozenset views of
    the masks, built on first access.  Equality and hashing compare ``n``
    and the masks.

    Parameters
    ----------
    n:
        Number of nodes; the nodes are the integers ``1..n``.
    arrows:
        Directed edges as ``(tail, head)`` pairs.
    lines:
        Undirected edges as unordered pairs.
    biarrows:
        Bidirected edges as unordered pairs.
    node_names:
        Optional display labels, one per node.  Labels are presentation
        only: they do not take part in equality or hashing.  A label must
        read back from the text format: non-empty, with no whitespace or
        ``#``, and not numeric.

    The paper's node relations are methods that take a node set: Pa
    :meth:`parents`, Ch :meth:`children`, Ne :meth:`neighbours`, An
    :meth:`ancestors`, De :meth:`descendants`, de :meth:`semidescendants`,
    Nd :meth:`non_semidescendants` and Cc :meth:`connectivity_component`.
    De (descendants, through arrows only) and de (semidescendants, through
    arrows or lines) differ.
    """

    def __init__(self, n: int, arrows=frozenset(), lines=frozenset(),
                 biarrows=frozenset(), node_names=None):
        if not isinstance(n, int) or n < 0:
            raise NodeOutOfRangeError(f"invalid node count {n!r}")
        if node_names is not None:
            node_names = _check_names(node_names, n)
        pa, ch, ne, bi = adj = tuple([0] * (n + 1) for _ in range(4))
        for kind, pairs, out, into in (("arrow", arrows, ch, pa), ("line", lines, ne, ne),
                                       ("biarrow", biarrows, bi, bi)):
            for a, b in pairs:
                a, b = _node_index(a, n), _node_index(b, n)
                if a == b:
                    raise SelfEdgeError(f"{kind} {a} {'->' if kind == 'arrow' else '-'} {b}")
                out[a] |= 1 << (b - 1)
                into[b] |= 1 << (a - 1)
        self.__dict__.update(n=n, _adj=adj, node_names=node_names)
        self.validate()

    @classmethod
    def _from_masks(cls, n: int, adj, node_names=None) -> "MixedGraph":
        """A graph derived by the package from a valid one, given as its
        ``(pa, ch, ne, bi)`` masks (index 0 unused; ``ne`` and ``bi``
        symmetric).  Trusted: the masks are stored as they are, with no
        :meth:`validate` and no edge sets."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, _adj=adj, node_names=node_names)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: MixedGraph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: MixedGraph is immutable")

    def _key(self) -> tuple:
        pa, _ch, ne, bi = self._adj
        return self.n, tuple(pa), tuple(ne), tuple(bi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- edge sets ---------------------------------------------------------

    @cached_property
    def arrows(self) -> frozenset:
        """Directed edges as ``(tail, head)`` pairs."""
        pa = self._adj[0]
        return frozenset((t, h) for h in range(1, self.n + 1) for t in _bits(pa[h]))

    @cached_property
    def lines(self) -> frozenset:
        """Undirected edges as pairs ``(a, b)`` with ``a < b``."""
        return _pairs(self._adj[2], self.n)

    @cached_property
    def biarrows(self) -> frozenset:
        """Bidirected edges as pairs ``(a, b)`` with ``a < b``."""
        return _pairs(self._adj[3], self.n)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check the invariants the masks can still break, raising on the
        first violation.  The constructor checks node ranges and self-edges
        while it builds the masks."""
        pa, ch, ne, bi = self._adj
        for v in range(1, self.n + 1):
            if pa[v] & ch[v]:
                u = next(_bits(pa[v] & ch[v]))
                raise DoubleArrowError(f"both {v} -> {u} and {u} -> {v}")
            if ne[v] & bi[v]:
                u = next(_bits(ne[v] & bi[v]))
                raise DoubleEdgeError(f"pair {v},{u} carries both a line and a biarrow")
        if any(ne) and any(bi):
            raise LineBiarrowMixError("lines and biarrows in the same graph")
        order = _peel(pa, ch, self.n)
        if len(order) < self.n:
            # Every node left unplaced has an unplaced parent: climb parents
            # from the smallest one until a node repeats.
            left = self.full_mask & ~set_index(order)
            climb = [next(_bits(left))]
            while climb[-1] not in climb[:-1]:
                climb.append(next(_bits(pa[climb[-1]] & left)))
            raise DirectedCycleError(climb[climb.index(climb[-1]):][::-1])

    # -- basic structure -------------------------------------------------

    @cached_property
    def dialect(self) -> Dialect:
        return Dialect.ORIGINAL if any(self._adj[3]) else Dialect.ALTERNATIVE

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    _an_cache = cached_property(lambda g: {})  # _an_mask, keyed by the seed mask
    _moral_cache = cached_property(lambda g: {})  # _moral_masks, by (criterion, An set)

    def node_mask(self, nodes: Iterable[int]) -> int:
        return _node_mask(nodes, self.n)

    def mask_nodes(self, mask: int) -> frozenset[int]:
        return frozenset(_bits(mask))

    def _an_mask(self, mask: int) -> int:
        cache = self._an_cache
        hit = cache.get(mask)
        if hit is None:
            hit = cache[mask] = _spread(self._adj[0], mask)
        return hit

    def _de_mask(self, mask: int) -> int:
        return _spread(self._adj[1], mask)

    def _sde_mask(self, mask: int) -> int:
        _pa, ch, ne, _bi = self._adj
        return _spread([c | m for c, m in zip(ch, ne)], mask)

    def _cc_mask(self, mask: int) -> int:
        return _spread(self._adj[2], mask)

    # -- node relations ----------------------------------------------------

    def parents(self, nodes: Iterable[int]) -> frozenset[int]:
        """Tails of arrows pointing into the set."""
        return self.mask_nodes(_union(self._adj[0], self.node_mask(nodes)))

    def children(self, nodes: Iterable[int]) -> frozenset[int]:
        """Heads of arrows leaving the set."""
        return self.mask_nodes(_union(self._adj[1], self.node_mask(nodes)))

    def neighbours(self, nodes: Iterable[int]) -> frozenset[int]:
        """Nodes joined to the set by a line."""
        return self.mask_nodes(_union(self._adj[2], self.node_mask(nodes)))

    def ancestors(self, nodes: Iterable[int]) -> frozenset[int]:
        """Reflexive transitive closure of parent steps."""
        return self.mask_nodes(self._an_mask(self.node_mask(nodes)))

    def descendants(self, nodes: Iterable[int]) -> frozenset[int]:
        """Reflexive transitive closure of child steps."""
        return self.mask_nodes(self._de_mask(self.node_mask(nodes)))

    def semidescendants(self, nodes: Iterable[int]) -> frozenset[int]:
        """Reflexive closure of steps that follow an arrow or a line forward."""
        return self.mask_nodes(self._sde_mask(self.node_mask(nodes)))

    def non_semidescendants(self, nodes: Iterable[int]) -> frozenset[int]:
        """Complement of :meth:`semidescendants` in the node set."""
        return self.mask_nodes(self.full_mask & ~self._sde_mask(self.node_mask(nodes)))

    def connectivity_component(self, nodes: Iterable[int]) -> frozenset[int]:
        """Reflexive transitive closure of line steps."""
        return self.mask_nodes(self._cc_mask(self.node_mask(nodes)))

    def connectivity_components(self) -> tuple[frozenset[int], ...]:
        """Partition of the nodes into line-connected components, in order of
        their lowest node.  A node without a line is its own component; the
        component walk runs only over the nodes with one."""
        ne = self._adj[2]
        lined = 0
        for v in range(1, self.n + 1):
            if ne[v]:
                lined |= 1 << (v - 1)
        by_lowest = {(c & -c).bit_length(): c for c in _components(ne, lined)}
        return tuple(self.mask_nodes(by_lowest[v]) if ne[v] else frozenset((v,))
                     for v in range(1, self.n + 1) if v in by_lowest or not ne[v])

    # -- derived graphs ----------------------------------------------------

    def undirected_skeleton(self) -> "MixedGraph":
        """The graph restricted to its lines."""
        return _undirected(self, self._adj[2])

    def consistent_ordering(self) -> tuple[int, ...]:
        """A node ordering that never places a strict ancestor later.

        Deterministic: among the available nodes the smallest index is
        placed first.
        """
        return tuple(_peel(self._adj[0], self._adj[1], self.n))

    def is_amp_cg(self) -> bool:
        """True when the graph is a chain graph: no biarrows and no cycle of
        forward arrow/line steps that uses an arrow.  An arrow and a line on
        one pair make such a cycle, so each pair carries at most one edge."""
        pa, _ch, _ne, bi = self._adj
        if any(bi):
            return False
        for v in range(1, self.n + 1):
            if pa[v] and pa[v] & self._sde_mask(1 << (v - 1)):
                return False
        return True

    # -- presentation ------------------------------------------------------

    def node_label(self, i: int) -> str:
        i = _node_index(i, self.n)
        return self.node_names[i - 1] if self.node_names else str(i)

    def __repr__(self):
        parts = [f"MixedGraph(n={self.n}"]
        if self.arrows:
            parts.append(f"arrows={sorted(self.arrows)}")
        if self.lines:
            parts.append(f"lines={sorted(self.lines)}")
        if self.biarrows:
            parts.append(f"biarrows={sorted(self.biarrows)}")
        return ", ".join(parts) + ")"


# -- text format -----------------------------------------------------------
#
# Graph files, constraint files, derivation scripts and CLI node lists all
# read lines through `_lines`, integers through `_int_token` and node
# tokens through a `_NodeTokens` table, so a token means the same thing in
# each of them.


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, content)`` of every line that is not blank once its
    ``#`` comment is cut off."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _int_token(tok: str, line_no: int | None = None) -> int | None:
    """The integer a token spells, or None when it spells none.

    A token is an integer exactly when it is an optional single ``-``
    followed by decimal digits, the only digits ``int()`` accepts; digits
    that are not decimal (``²``) and repeated signs (``--2``) make a label.
    An integer with more digits than ``int()`` converts raises
    :class:`ParseError`.
    """
    digits = tok[1:] if tok.startswith("-") else tok
    if not digits.isdecimal():
        return None
    try:
        return int(tok)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         line_no) from None


def _integer(tok: str, what: str, line_no: int | None = None) -> int:
    """:func:`_int_token`, raising a :class:`ParseError` that names ``what``
    when the token spells no integer."""
    value = _int_token(tok, line_no)
    if value is None:
        raise ParseError(f"{what} must be an integer, got {tok!r}", line_no)
    return value


def _check_node_count(n: int, line_no: int) -> None:
    if n > MAX_GRAPH_NODES:
        raise ParseError(f"{n} nodes exceed the cap of {MAX_GRAPH_NODES}", line_no)


def _numeric(tok: str) -> bool:
    # Minus signs then digits of any kind ("-3", "²", "--2") read as a
    # number, so a nodes line may not declare such a token as a label.
    digits = tok.lstrip("-")
    return bool(digits) and all(unicodedata.digit(c, None) is not None
                                for c in digits)


def _unreadable_label(label: str) -> bool:
    """True for a label a nodes line cannot declare: empty, split by
    whitespace, cut by ``#``, holding a ``,`` (node lists split there) or
    numeric."""
    return (not label or "#" in label or "," in label or any(c.isspace() for c in label)
            or _numeric(label))


class _NodeTokens(dict):
    """The token table of one text input: each node token read so far, to
    its index.  It starts out holding the labels, and a token it lacks is
    resolved once, on the line set last in ``line_no``: an integer token is
    an index, checked against 1..n; any other token is an unknown label (a
    label is never an integer token).  Either fault raises
    :class:`ParseError` where the token first appears."""

    def __init__(self, n: int, names=None):
        super().__init__(zip(names or (), range(1, n + 1)))
        self.n, self.line_no = n, None

    def __missing__(self, tok: str) -> int:
        i = _int_token(tok, self.line_no)
        if i is None:
            raise ParseError(f"unknown node {tok!r}", self.line_no)
        if not 1 <= i <= self.n:
            raise ParseError(f"node {tok} out of range 1..{self.n}", self.line_no)
        self[tok] = i
        return i

    def mask(self, raw: str) -> int:
        """The mask of comma-separated node tokens; space around an item is
        ignored and empty items are skipped."""
        mask = 0
        for tok in raw.split(","):
            tok = tok.strip()
            if tok:
                mask |= 1 << (self[tok] - 1)
        return mask


def _labels(g: MixedGraph) -> list[str]:
    """Each node's display label, by index (index 0 unused): the table the
    writers of one command read labels from."""
    return ["", *(g.node_names or map(str, range(1, g.n + 1)))]


def serialize(g: MixedGraph) -> str:
    """Render a graph in the line-oriented text format.

    The output starts with a ``nodes`` line followed by one line per edge:
    arrows sorted by (tail, head), read off the ``ch`` rows, then lines and
    biarrows as sorted pairs ``a < b``, read off the upper parts of ``ne``
    and ``bi``.  When the graph carries labels the output uses them;
    otherwise 1-based indices.
    """
    label = _labels(g)
    out = ["nodes " + (" ".join(g.node_names) if g.node_names else str(g.n))]
    _pa, ch, ne, bi = g._adj
    for kind, rows, upper in (("arrow", ch, False), ("line", ne, True),
                              ("biarrow", bi, True)):
        for a in range(1, g.n + 1):
            row = rows[a] >> a << a if upper else rows[a]
            if row:
                out += [f"{kind} {label[a]} {label[b]}" for b in _bits(row)]
    return "\n".join(out) + "\n"


_EDGE_ROWS = {"arrow": (1, 0), "line": (2, 2), "biarrow": (3, 3)}
"""Each edge keyword's rows in ``(pa, ch, ne, bi)``: the tail's row gets the
head's bit, the head's row the tail's."""


def parse(text: str) -> MixedGraph:
    """Parse the text format produced by :func:`serialize`.

    ``#`` starts a comment.  The ``nodes`` line is either a node count or a
    list of distinct non-numeric labels; labels map to indices in the order
    they are declared.  Edge lines accept indices or declared labels.

    Each edge line sets its bits in the ``(pa, ch, ne, bi)`` masks as it is
    read, each distinct node token is resolved once, and the masks are
    validated once the text is read.  A self-edge is refused after the
    last line, naming the lowest node of the first kind (arrow, line,
    biarrow) that has one.
    """
    n = None
    names: tuple | None = None
    for line_no, line in _lines(text):
        tokens = line.split()
        kw = tokens[0]
        rows = _EDGE_ROWS.get(kw)
        if rows and n is not None and len(tokens) == 3:
            nodes.line_no = line_no
            a, b = nodes[tokens[1]], nodes[tokens[2]]
            if a == b:
                loops[kw] |= 1 << (a - 1)
            else:
                adj[rows[0]][a] |= 1 << (b - 1)
                adj[rows[1]][b] |= 1 << (a - 1)
            continue
        if kw != "nodes":
            if n is None:
                raise ParseError("first line must declare nodes", line_no)
            raise ParseError(f"unrecognised line {line!r}", line_no)
        if n is not None:
            raise ParseError("duplicate nodes line", line_no)
        rest = tokens[1:]
        if not rest:
            raise ParseError("nodes line needs a count or labels", line_no)
        numeric = len(rest) == 1 and rest[0].isdecimal()
        n = _integer(rest[0], "node count", line_no) if numeric else len(rest)
        _check_node_count(n, line_no)
        if not numeric:
            for lbl in rest:
                if "," in lbl:
                    raise ParseError(f"label {lbl!r} holds a comma, which splits node lists",
                                     line_no)
                if _unreadable_label(lbl):  # any other such token here is numeric
                    raise ParseError(f"label {lbl!r} is numeric; use a node count instead",
                                     line_no)
            names = tuple(rest)
            if len(set(names)) != n:
                raise ParseError("duplicate node label", line_no)
        nodes = _NodeTokens(n, names)
        adj = tuple([0] * (n + 1) for _ in range(4))
        loops = dict.fromkeys(_EDGE_ROWS, 0)  # self-edges by kind, refused at the end
    if n is None:
        raise ParseError("missing nodes line")
    for kind, mask in loops.items():
        if mask:
            a = (mask & -mask).bit_length()
            raise SelfEdgeError(f"{kind} {a} {'->' if kind == 'arrow' else '-'} {a}")
    g = MixedGraph._from_masks(n, adj, names)
    g.validate()
    return g
