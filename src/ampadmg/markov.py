"""Conditional-independence statement generators and verification.

Two families of generators turn a graph into the finite statement set of
a Markov property:

* ordered local / ordered pairwise, which take the graph and range over
  its ancestral node sets, so they cover every consistent ordering at once;
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
from .errors import NodeNotInSetError, NotAnAmpCgError, ProblemTooLargeError
from .graph import MixedGraph, _bits, _components, _node_index, _spread, _submasks, _union
from .separation import SeparationQuery, _blanket_mask, _extended_masks, _reject_biarrows

OBSERVATIONAL = 0

AMP_FLAVOURS = ("block-recursive", "local", "pairwise")

MAX_BLOCK_COMPONENT = 12
"""The largest line component the block-recursive property accepts: it
walks about 4^k (x, y, z) triples of a k-node component, and through the
CLI a 12-node line path took 25 s and 745 MB (10 nodes: 1.4 s, 80 MB)."""


@dataclass(frozen=True, init=False, eq=False)
class CiStatement(SeparationQuery):
    """x independent of y given z, in regime 0 (observational) or under an
    intervention on node ``regime``; held as masks like a query."""

    regime: int = OBSERVATIONAL

    def __init__(self, x, y, z=frozenset(), regime: int = OBSERVATIONAL):
        super().__init__(x, y, z)
        self.__dict__["regime"] = _node_index(regime)

    def _key(self) -> tuple:
        return (*super()._key(), self.regime)


def _canon(xm: int, ym: int, zm: int) -> tuple[int, int, int]:
    # x and y are disjoint, so the side holding the lower node comes first.
    return (xm, ym, zm) if xm & -xm < ym & -ym else (ym, xm, zm)


def _finish(triples: Iterable[tuple[int, int, int]]) -> tuple[CiStatement, ...]:
    # Drops a triple with an empty side; orders by each side's nodes, rising.
    canon = {_canon(*t) for t in triples if t[0] and t[1]}
    return tuple(CiStatement._from_masks(*t)
                 for t in sorted(canon, key=lambda t: [tuple(_bits(m)) for m in t]))


def _split(triples):
    # x against each single node c of y, given z plus the rest of y.
    for xm, ym, zm in triples:
        for c in _bits(ym):
            cb = 1 << (c - 1)
            yield xm, cb, zm | (ym & ~cb)


def markov_blanket(g: MixedGraph, s: Iterable[int], b: int) -> frozenset[int]:
    """The blanket of b inside the extended subgraph over s: children,
    neighbours of b and its children, and parents of all of those."""
    sm = g.node_mask(s)
    b = _node_index(b, g.n)
    if not sm >> (b - 1) & 1:
        raise NodeNotInSetError(f"node {b} is not in the target set")
    _reject_biarrows(g, "extended subgraph")
    return g.mask_nodes(_blanket_mask(_extended_masks(g, g._an_mask(sm)), b))


def _ancestral_sets(g: MixedGraph):
    # Every non-empty node set that holds the parents of its members.  Each
    # has exactly one last node in any ordering no arrow contradicts, so
    # these are the sets an ordered property admits, whatever the ordering.
    pa = g._adj[0]
    return (sm for sm in range(1, g.full_mask + 1) if not _union(pa, sm) & ~sm)


def ordered_local_statements(g: MixedGraph) -> tuple[CiStatement, ...]:
    """Each member of each ancestral set of g, screened off by its blanket
    in the extended subgraph.  A member whose blanket leaves the set
    (through a chain of lines) is skipped: the outside nodes bring in arrows
    the extended subgraph lacks.  The ancestral sets are exactly the
    prefixes of the consistent orderings, so one call covers every ordering
    and none is taken; a graph with biarrows is refused.

    Every statement emitted is a separation, but together they do not
    imply the global property on every graph: on ``2 -> 4 -> 3``,
    ``1 - 4``, ``2 - 3``, ``1 ⊥ 2 | ∅`` holds but both members of {1, 2}
    are skipped (open on the ROADMAP).
    """
    _reject_biarrows(g, "the ordered local property")
    return _finish(_screened(g, _ancestral_sets(g)))


def ordered_pairwise_statements(g: MixedGraph) -> tuple[CiStatement, ...]:
    """The ordered local statements of g split one node at a time, over the
    ancestral sets S that are also closed under lines.  No blanket leaves
    such an S, so the split gives ``b ⊥ c | S - {b, c}`` for each pair not
    joined in the augmented graph.  Like the local family it covers every
    consistent ordering at once; a graph with biarrows is refused.

    Every statement emitted is a separation, but together they do not
    imply the global property on every graph: on ``2 -> 3``, ``1 - 3``,
    ``1 ⊥ 2 | ∅`` holds but nothing is emitted, as the one such S holding
    1 and 2 also holds 3 (open on the ROADMAP).
    """
    _reject_biarrows(g, "the ordered pairwise property")
    ne = g._adj[2]
    closed = (sm for sm in _ancestral_sets(g) if not _union(ne, sm) & ~sm)
    return _finish(_split(_screened(g, closed)))


def _screened(g: MixedGraph, sets):
    # Each member b of each set S against the rest of S given its blanket
    # in the extended subgraph over S, unless that blanket leaves S.  Every
    # S is ancestral, so it is its own ancestor set.
    for sm in sets:
        ext_adj = _extended_masks(g, sm)
        for b in _bits(sm):
            mb = _blanket_mask(ext_adj, b)
            if not mb & ~sm:
                yield 1 << (b - 1), sm & ~mb & ~(1 << (b - 1)), mb


def amp_statements(g: MixedGraph, flavour: str) -> tuple[CiStatement, ...]:
    """Chain-graph Markov statements of the requested flavour:
    ``block-recursive``, ``local`` or ``pairwise``."""
    if flavour not in AMP_FLAVOURS:
        raise ValueError(f"flavour must be one of {AMP_FLAVOURS}, got {flavour!r}")
    if not g.is_amp_cg():
        raise NotAnAmpCgError("graph has double edges, biarrows or a "
                              "semidirected cycle")
    comps = list(_components(g._adj[2], g.full_mask))
    k = max((cm.bit_count() for cm in comps), default=0)
    if flavour == "block-recursive" and k > MAX_BLOCK_COMPONENT:  # before any statement
        raise ProblemTooLargeError(f"a line component of {k} nodes exceeds the "
                                   f"block-recursive cap of {MAX_BLOCK_COMPONENT}")
    out = []
    for cm in comps:
        ndm = g.full_mask & ~g._sde_mask(cm)
        if flavour == "block-recursive":
            out.extend(_block_recursive(g, cm, ndm))
        elif flavour == "local":
            out.extend(_local(g, cm, ndm))
        else:
            # A component's parents are among its non-semidescendants nd, so
            # this gives b ⊥ c | (nd + cm) - {b, c} and b ⊥ c | s + nd - {c}.
            out.extend(_split(_local(g, cm, ndm)))
    return _finish(out)


def _block_recursive(g, cm, ndm):
    # Every non-empty block of the component against its non-semidescendants
    # given its parents; plus every separation of the component's undirected
    # graph, shifted by the component's parents.  Lines join the component,
    # so every non-empty block has the component's non-semidescendants ndm.
    for dm in _submasks(cm):
        pam = _union(g._adj[0], dm)
        yield dm, ndm & ~pam, pam
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
    statement's regime intervention first when one is set.  The oracle cuts
    each regime once and keeps the cut graph, so every statement of a regime
    is decided on one graph and criteria 3 and 4 share its moral memo."""
    cuts = {OBSERVATIONAL: g}

    def oracle(stmt: CiStatement) -> bool:
        gr = cuts.get(stmt.regime)
        if gr is None:
            gr = cuts[stmt.regime] = docalc.intervene(g, [stmt.regime])
        return separation.separated(gr, stmt, criterion)

    return oracle


def gaussian_oracle(sigma, tol: float = sem.CI_TOL) -> Callable[[CiStatement], bool]:
    """Oracle that decides observational statements by vanishing partial
    correlations; for a Gaussian, a block is independent exactly when every
    cross pair is.  A negative, NaN or infinite ``tol`` is refused here."""
    sem._check_tol(tol)

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
