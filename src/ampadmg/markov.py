"""Conditional-independence statement generators and verification.

Three families of generators turn a graph into the finite statement set of
a Markov property:

* ordered local / ordered pairwise, driven by a node ordering and the
  ancestral subsets it admits;
* chain-graph properties (block-recursive, local, pairwise) for graphs
  with at most one edge per pair and no semidirected cycle.

Statements can be verified against any oracle, graphical or Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InconsistentOrderingError, NodeNotInSetError, NotAnAmpCgError
from .graph import MixedGraph, _bits, _spread, _union
from .separation import (
    SeparationQuery,
    _extended_masks,
    _moral_masks,
    _reject_biarrows,
)

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
        """Swap x and y into a fixed order so symmetric duplicates collapse."""
        x, y = self.sort_key()[:2]
        if y >= x:
            return self
        if min(self.xm, self.ym, self.zm) < 0:  # a mask of -1: swap the sets
            return CiStatement(self.y, self.x, self.z, self.regime)
        return CiStatement._from_masks(self.ym, self.xm, self.zm, regime=self.regime)

    def sort_key(self):
        masks = self.xm, self.ym, self.zm
        if min(masks) < 0:  # a mask of -1: sort the sets
            return (*(tuple(sorted(s)) for s in (self.x, self.y, self.z)), self.regime)
        return (*(tuple(_bits(m)) for m in masks), self.regime)


def _finish(stmts: Iterable[CiStatement]) -> tuple[CiStatement, ...]:
    return tuple(sorted({s.canonical() for s in stmts}, key=CiStatement.sort_key))


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


def _ancestral_supersets(g: MixedGraph, ordering):
    # Yields the mask of every ancestral S that is contained in some prefix
    # of the ordering and contains the prefix's last node.
    pre = 0
    for a in ordering:
        ab = 1 << (a - 1)
        for sub in _submasks(pre):
            sm = sub | ab
            if g._an_mask(sm) == sm:
                yield sm
        pre |= ab


def ordered_local_statements(ctx: OrderedContext) -> tuple[CiStatement, ...]:
    """Each member of each admissible ancestral set, screened off by its
    blanket in the extended subgraph.

    A blanket can reach outside the set through a chain of undirected
    edges; conditioning on such a node brings arrows into play that the
    extended subgraph over the set does not contain, and the screened
    statement need not be a separation.  Those members are skipped.
    """
    g = ctx.graph
    out = []
    for sm in _ancestral_supersets(g, ctx.ordering):
        ext_adj = _extended_masks(g, sm)
        for b in _bits(sm):
            mb = _blanket_mask(ext_adj, b)
            if mb & ~sm:
                continue
            ym = sm & ~mb & ~(1 << (b - 1))
            if ym:
                out.append(CiStatement._from_masks(1 << (b - 1), ym, mb))
    return _finish(out)


def _blanket_mask(adj3, b: int) -> int:
    pa, ch, ne = adj3
    bb = 1 << (b - 1)
    chm = ch[b]
    nem = _union(ne, bb | chm)
    pam = _union(pa, bb | chm | nem)
    return (chm | nem | pam) & ~bb


def ordered_pairwise_statements(ctx: OrderedContext) -> tuple[CiStatement, ...]:
    """Each non-augmented-adjacent pair inside an admissible ancestral set,
    given all other nodes of the extended subgraph.

    Only sets that are also closed under connectivity components qualify:
    for those the extended subgraph adds no outside nodes, so conditioning
    on its remainder yields a separation.  A set that is not closed is
    covered by its closure, which is itself ancestral and enumerated.
    """
    g = ctx.graph
    out = []
    for sm in _ancestral_supersets(g, ctx.ordering):
        if g._cc_mask(sm) != sm:
            continue
        aug = _moral_masks(g, sm, 3)
        members = list(_bits(sm))
        for i, b in enumerate(members):
            for c in members[i + 1:]:
                if (aug[b] >> (c - 1)) & 1:
                    continue
                zm = sm & ~(1 << (b - 1)) & ~(1 << (c - 1))
                out.append(CiStatement._from_masks(1 << (b - 1), 1 << (c - 1), zm))
    return _finish(out)


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
            out.extend(_pairwise(g, cm, ndm))
    return _finish(out)


def _block_recursive(g, cm):
    # Every non-empty block of the component against its non-semidescendants
    # given its parents; plus every separation of the component's undirected
    # graph, shifted by the component's parents.
    for dm in _submasks(cm):
        if not dm:
            continue
        pam = _union(g._adj[0], dm)
        ym = (g.full_mask & ~g._sde_mask(dm)) & ~pam
        if ym:
            yield CiStatement._from_masks(dm, ym, pam)
    pac = _union(g._adj[0], cm)
    ne = g._adj[2]  # no line leaves the component
    for xm in _submasks(cm):
        if not xm:
            continue
        rest = cm & ~xm
        for ym in _submasks(rest):
            if not ym or (ym & -ym) < (xm & -xm):
                continue  # canonical: smallest node lives in x
            for zm in _submasks(rest & ~ym):
                if not _spread(ne, xm, zm, ym) & ym:
                    yield CiStatement._from_masks(xm, ym, zm | pac)


def _local(g, cm, ndm):
    ne = g._adj[2]
    for a in _bits(cm):
        ab = 1 << (a - 1)
        nea = ne[a]
        ym = cm & ~ab & ~nea
        if ym:
            yield CiStatement._from_masks(ab, ym, ndm | nea)
        for sm in _submasks(cm & ~ab):
            pam = _union(g._adj[0], ab | sm)
            ym2 = ndm & ~pam
            if ym2:
                yield CiStatement._from_masks(ab, ym2, sm | pam)


def _pairwise(g, cm, ndm):
    ne = g._adj[2]
    for a in _bits(cm):
        ab = 1 << (a - 1)
        for b in _bits(cm & ~ab & ~ne[a]):
            zm = (ndm | cm) & ~ab & ~(1 << (b - 1))
            yield CiStatement._from_masks(ab, 1 << (b - 1), zm)
        for sm in _submasks(cm & ~ab):
            pam = _union(g._adj[0], ab | sm)
            for b in _bits(ndm & ~pam):
                zm = sm | (ndm & ~(1 << (b - 1)))
                yield CiStatement._from_masks(ab, 1 << (b - 1), zm)


# -- verification -------------------------------------------------------------


def separation_oracle(g: MixedGraph, criterion: int = 2) -> Callable[[CiStatement], bool]:
    """Oracle that decides statements by graphical separation, applying the
    statement's regime intervention first when one is set; every statement
    of a regime is decided on the one graph ``intervene`` memoises for it."""
    from .docalc import intervene
    from .separation import separated

    def oracle(stmt: CiStatement) -> bool:
        gr = intervene(g, [stmt.regime]) if stmt.regime else g
        return separated(gr, stmt, criterion)

    return oracle


def gaussian_oracle(sigma, tol: float = 1e-7) -> Callable[[CiStatement], bool]:
    """Oracle that decides observational statements by vanishing partial
    correlations; for a Gaussian, a block is independent exactly when every
    cross pair is."""
    from .sem import ci_test

    def oracle(stmt: CiStatement) -> bool:
        if stmt.regime != OBSERVATIONAL:
            raise ValueError("gaussian oracle only handles observational statements")
        return all(ci_test(sigma, a, b, stmt.z, tol)
                   for a in stmt.x for b in stmt.y)

    return oracle


def verify_statements(stmts: Sequence[CiStatement],
                      oracle: Callable[[CiStatement], bool]) -> tuple[CiStatement, ...]:
    """Evaluate every statement; return the failing ones in input order."""
    return tuple(s for s in stmts if not oracle(s))
