"""Conditional-independence statement generators and verification.

Two families of generators turn a graph into the finite statement set of
a Markov property:

* ordered local / ordered pairwise, over the ancestral node sets; the
  node ordering is only checked against the arrows;
* chain-graph properties (block-recursive, local, pairwise) for graphs
  with at most one edge per pair and no semidirected cycle.

In both, each pairwise statement is a local one split one node at a time.
Generators yield ``(x, y, z)`` masks; :func:`_finish` makes the statements.

Statements can be verified against any oracle, graphical or Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

# The oracles call through the modules, so a wrapper bound over
# ``docalc.intervene``, ``separation.separated`` or ``sem.ci_test`` after
# import (as bench/spans.py binds its spans) sees their calls too.
from . import docalc, sem, separation
from .errors import InconsistentOrderingError, NodeNotInSetError, NotAnAmpCgError
from .graph import MixedGraph, _bits, _spread, _union
from .separation import SeparationQuery, _blanket_mask, _extended_masks, _reject_biarrows

OBSERVATIONAL = 0

AMP_FLAVOURS = ("block-recursive", "local", "pairwise")


@dataclass(frozen=True, init=False)
class CiStatement(SeparationQuery):
    """x independent of y given z, in regime 0 (observational) or under an
    intervention on node ``regime``; held as masks like a query."""

    regime: int = OBSERVATIONAL

    def __init__(self, x, y, z=frozenset(), regime: int = OBSERVATIONAL):
        super().__init__(x, y, z)
        self.__dict__["regime"] = regime

    def canonical(self) -> "CiStatement":
        """Swap x and y into a fixed order so symmetric duplicates collapse:
        the side holding the lower node comes first."""
        if min(self.xm, self.ym, self.zm) < 0:  # a mask of -1: compare the sets
            x, y = self.sort_key()[:2]
            return self if y >= x else CiStatement(self.y, self.x, self.z, self.regime)
        xm, ym, zm = _canon(self.xm, self.ym, self.zm)
        return self if xm == self.xm else CiStatement._from_masks(xm, ym, zm, regime=self.regime)

    def sort_key(self):
        masks = self.xm, self.ym, self.zm
        if min(masks) < 0:  # a mask of -1: sort the sets
            return (*(tuple(sorted(s)) for s in (self.x, self.y, self.z)), self.regime)
        return (*(tuple(_bits(m)) for m in masks), self.regime)


def _canon(xm: int, ym: int, zm: int) -> tuple[int, int, int]:
    # x and y are disjoint, so the side holding the lower node comes first.
    return (xm, ym, zm) if xm & -xm < ym & -ym else (ym, xm, zm)


def _finish(triples: Iterable[tuple[int, int, int]]) -> tuple[CiStatement, ...]:
    # Drops a triple with an empty side.
    canon = {_canon(*t) for t in triples if t[0] and t[1]}
    return tuple(sorted((CiStatement._from_masks(*t) for t in canon), key=CiStatement.sort_key))


def _split(triples):
    # x against each single node c of y, given z plus the rest of y.
    for xm, ym, zm in triples:
        for c in _bits(ym):
            cb = 1 << (c - 1)
            yield xm, cb, zm | (ym & ~cb)


@dataclass(frozen=True)
class OrderedContext:
    """A graph together with a node ordering no arrow contradicts."""

    graph: MixedGraph
    ordering: tuple

    def __post_init__(self):
        g = self.graph
        order = tuple(int(i) for i in self.ordering)
        object.__setattr__(self, "ordering", order)
        if sorted(order) != list(range(1, g.n + 1)):
            raise InconsistentOrderingError("ordering must list each node once")
        pos = {v: k for k, v in enumerate(order)}
        for t, h in g.arrows:
            if pos[t] > pos[h]:
                raise InconsistentOrderingError(
                    f"arrow {t} -> {h} contradicts the ordering")


def markov_blanket(g: MixedGraph, s: Iterable[int], b: int) -> frozenset[int]:
    """The blanket of b inside the extended subgraph over s: children,
    neighbours of b and its children, and parents of all of those."""
    s = frozenset(int(i) for i in s)
    b = int(b)
    if b not in s:
        raise NodeNotInSetError(f"node {b} is not in the target set")
    _reject_biarrows(g, "extended subgraph")
    return g.mask_nodes(_blanket_mask(_extended_masks(g, g.node_mask(s)), b))


def _ancestral_sets(g: MixedGraph):
    # Every non-empty node set that holds the parents of its members.  Each
    # has exactly one last node in any ordering no arrow contradicts, so
    # these are the sets an ordered property admits, whatever the ordering.
    pa = g._adj[0]
    return (sm for sm in range(1, g.full_mask + 1) if not _union(pa, sm) & ~sm)


def ordered_local_statements(ctx: OrderedContext) -> tuple[CiStatement, ...]:
    """Each member of each ancestral set, screened off by its blanket in the
    extended subgraph.  A member whose blanket leaves the set (through a
    chain of lines) is skipped: the outside nodes bring in arrows the
    extended subgraph lacks.  The statements do not depend on which
    consistent ordering ``ctx`` holds; a graph with biarrows is refused.

    Every statement emitted is a separation, but together they do not
    imply the global property on every graph: on ``2 -> 4 -> 3``,
    ``1 - 4``, ``2 - 3``, ``1 ⊥ 2 | ∅`` holds but both members of {1, 2}
    are skipped (ROADMAP item 1).
    """
    _reject_biarrows(ctx.graph, "the ordered local property")
    return _finish(_screened(ctx.graph, _ancestral_sets(ctx.graph)))


def ordered_pairwise_statements(ctx: OrderedContext) -> tuple[CiStatement, ...]:
    """The ordered local statements split one node at a time, over the
    ancestral sets S that are also closed under lines.  No blanket leaves
    such an S, so the split gives ``b ⊥ c | S - {b, c}`` for each pair not
    joined in the augmented graph.  The statements do not depend on which
    consistent ordering ``ctx`` holds; a graph with biarrows is refused.

    Every statement emitted is a separation, but together they do not
    imply the global property on every graph: on ``2 -> 3``, ``1 - 3``,
    ``1 ⊥ 2 | ∅`` holds but nothing is emitted, as the one such S holding
    1 and 2 also holds 3 (ROADMAP item 1).
    """
    g = ctx.graph
    _reject_biarrows(g, "the ordered pairwise property")
    ne = g._adj[2]
    closed = (sm for sm in _ancestral_sets(g) if not _union(ne, sm) & ~sm)
    return _finish(_split(_screened(g, closed)))


def _screened(g: MixedGraph, sets):
    # Each member b of each set S against the rest of S given its blanket
    # in the extended subgraph over S, unless that blanket leaves S.
    for sm in sets:
        ext_adj = _extended_masks(g, sm)
        for b in _bits(sm):
            mb = _blanket_mask(ext_adj, b)
            if not mb & ~sm:
                yield 1 << (b - 1), sm & ~mb & ~(1 << (b - 1)), mb


def _submasks(mask: int):
    # All submasks of `mask`, including 0 and mask itself.
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def amp_statements(g: MixedGraph, flavour: str) -> tuple[CiStatement, ...]:
    """Chain-graph Markov statements of the requested flavour:
    ``block-recursive``, ``local`` or ``pairwise``."""
    if flavour not in AMP_FLAVOURS:
        raise ValueError(f"flavour must be one of {AMP_FLAVOURS}, got {flavour!r}")
    if not g.is_amp_cg():
        raise NotAnAmpCgError("graph has double edges, biarrows or a "
                              "semidirected cycle")
    out = []
    for comp in g.connectivity_components():
        cm = g.node_mask(comp)
        ndm = g.full_mask & ~g._sde_mask(cm)
        if flavour == "block-recursive":
            out.extend(_block_recursive(g, cm))
        elif flavour == "local":
            out.extend(_local(g, cm, ndm))
        else:
            # A component's parents are among its non-semidescendants nd, so
            # this gives b ⊥ c | (nd + cm) - {b, c} and b ⊥ c | s + nd - {c}.
            out.extend(_split(_local(g, cm, ndm)))
    return _finish(out)


def _block_recursive(g, cm):
    # Every non-empty block of the component against its non-semidescendants
    # given its parents; plus every separation of the component's undirected
    # graph, shifted by the component's parents.
    for dm in _submasks(cm):
        pam = _union(g._adj[0], dm)
        yield dm, g.full_mask & ~g._sde_mask(dm) & ~pam, pam
    pac = _union(g._adj[0], cm)
    ne = g._adj[2]  # no line leaves the component
    for xm in _submasks(cm):
        if not xm:
            continue
        rest = cm & ~xm
        for ym in _submasks(rest & -(xm & -xm)):  # y above x's lowest node
            if not ym:
                continue
            for zm in _submasks(rest & ~ym):
                if not _spread(ne, xm, zm, ym) & ym:
                    yield xm, ym, zm | pac


def _local(g, cm, ndm):
    ne = g._adj[2]
    for a in _bits(cm):
        ab = 1 << (a - 1)
        yield ab, cm & ~ab & ~ne[a], ndm | ne[a]
        for sm in _submasks(cm & ~ab):
            pam = _union(g._adj[0], ab | sm)
            yield ab, ndm & ~pam, sm | pam


# -- verification -------------------------------------------------------------


def separation_oracle(g: MixedGraph, criterion: int = 2) -> Callable[[CiStatement], bool]:
    """Oracle that decides statements by graphical separation, applying the
    statement's regime intervention first when one is set; every statement
    of a regime is decided on the one graph ``intervene`` memoises for it."""

    def oracle(stmt: CiStatement) -> bool:
        gr = docalc.intervene(g, [stmt.regime]) if stmt.regime else g
        return separation.separated(gr, stmt, criterion)

    return oracle


def gaussian_oracle(sigma, tol: float = 1e-7) -> Callable[[CiStatement], bool]:
    """Oracle that decides observational statements by vanishing partial
    correlations; for a Gaussian, a block is independent exactly when every
    cross pair is."""

    def oracle(stmt: CiStatement) -> bool:
        if stmt.regime != OBSERVATIONAL:
            raise ValueError("gaussian oracle only handles observational statements")
        return all(sem.ci_test(sigma, a, b, stmt.z, tol)
                   for a in stmt.x for b in stmt.y)

    return oracle


def verify_statements(stmts: Sequence[CiStatement],
                      oracle: Callable[[CiStatement], bool]) -> tuple[CiStatement, ...]:
    """Evaluate every statement; return the failing ones in input order."""
    return tuple(s for s in stmts if not oracle(s))
