"""Interventions and the three do-calculus rules for mixed graphs.

Intervening on a set x cuts every arrow into x.  In the alternative
dialect the lines are marginalised onto the nodes outside x: the lines at
x are removed, but any two outside nodes that were joined by a line path
running entirely through x are joined directly, so the dependence carried
by that path survives.  In the original dialect the biarrows touching x
are simply removed.

Every intervened graph is built from the masks :func:`_cut` returns,
which nothing memoises.  Rule premises are criterion-2 questions on them.
Rules 2 and 3 ask about z's regime indicators, which
:func:`with_regime_nodes` adds one per node; the premises are checked
against ``bench/oracle.py`` and SEM surgery, not against that graph.
One indicator F into all of z does as well: a walk from F starts
``F -> v`` for some v in z, as a walk from v's own indicator does, and a
walk that passes F again can be cut at its last visit without changing
its inner colliders.  So the premise asks whether a walk that enters z
through an arrowhead reaches y.

:func:`_premise` asks every premise on the masks of a checked step.  A
script step, :class:`RuleApplication`, holds its sets as masks:
:func:`parse_derivation` reads each set straight into one, checking each
node token once, where it first reads it, and :func:`check_derivation`
range-checks a step against its graph with one shift.
:func:`rule_applicable` reads and checks its own sets, then asks the same
premise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import MalformedQueryError, OverlappingSetsError, ParseError
from .graph import (MAX_GRAPH_NODES, MixedGraph, _bits, _integer, _lines, _node_mask,
                    _NodeTokens)
from .separation import SeparationQuery, _marginal_masks, _route_connected, connects_route


def intervene(g: MixedGraph, x: Iterable[int]) -> MixedGraph:
    """The graph after forcing the nodes in x from outside; g for an empty x."""
    xm = g.node_mask(x)
    return MixedGraph._from_masks(g.n, _cut(g, xm), g.node_names) if xm else g


def _cut(g: MixedGraph, xm: int) -> tuple:
    # g's (pa, ch, ne, bi) masks with the arrows into x cut, the biarrows at
    # x dropped and the lines marginalised onto the nodes outside x.  Only
    # x's rows are walked; every other row is copied or masked once.  For an
    # empty x they are g's own masks, which callers only read.
    if not xm:
        return g._adj
    pa, ch, ne, bi = g._adj
    keep = ((1 << g.n) - 1) & ~xm
    pa_x, bi_x = list(pa), [m & keep for m in bi]
    for v in _bits(xm):
        pa_x[v] = bi_x[v] = 0
    return pa_x, [m & keep for m in ch], _marginal_masks(ne, keep, xm), bi_x


def with_regime_nodes(g: MixedGraph, targets: Iterable[int]) -> MixedGraph:
    """g with one indicator node per target, each pointing into its target.

    The k-th target in increasing order (k = 1, 2, ...) gets the indicator
    node ``g.n + k``.  A labelled graph names the indicator of ``v``
    ``F_<label of v>``, primed until it clashes with no other label.
    """
    targets = list(_bits(g.node_mask(targets)))
    n, grow = g.n, [0] * len(targets)
    pa, ch, ne, bi = g._adj
    pa_r = pa + grow
    ch_r = ch + [1 << (v - 1) for v in targets]
    for f, v in enumerate(targets, start=n + 1):
        pa_r[v] |= 1 << (f - 1)
    names = None
    if g.node_names:
        names = list(g.node_names)
        taken = set(names)
        for v in targets:
            label = f"F_{g.node_names[v - 1]}"
            while label in taken:
                label += "'"
            taken.add(label)
            names.append(label)
        names = tuple(names)
    return MixedGraph._from_masks(n + len(targets), (pa_r, ch_r, ne + grow, bi + grow), names)


def rule_applicable(g: MixedGraph, rule: int, x: Iterable[int], y: Iterable[int],
                    z: Iterable[int], w: Iterable[int]) -> bool:
    """Check the premise of do-calculus rule 1, 2 or 3.

    Rule 1 licenses dropping z from the conditioning set of
    ``p(y | do(x), z, w)``; rule 2 exchanges conditioning on z with
    intervening on it; rule 3 removes an intervention on z entirely.

    Each premise is a criterion-2 question on the masks of the graph with
    x forced: y against z given x ∪ w (rule 1), or whether a walk that
    enters z through an arrowhead reaches y (see the module docstring),
    given x ∪ z ∪ w (rule 2) or x ∪ w (rule 3).
    """
    _check_rule(rule)
    masks = [g.node_mask(s) for s in (x, y, z, w)]
    _check_sets(*masks)
    return _premise(g, rule, *masks)


def _check_rule(rule) -> None:
    if rule not in (1, 2, 3):
        raise ValueError(f"rule must be 1, 2 or 3, got {rule!r}")


def _check_sets(*masks: int) -> None:
    # The masks (x, y, z, w) of one step: y non-empty, the four disjoint.
    if not masks[1]:
        raise MalformedQueryError("y must be non-empty")
    seen = 0
    for m in masks:
        if m & seen:
            i = next(_bits(m & seen))
            raise OverlappingSetsError(f"node {i} appears in two argument sets")
        seen |= m


def _premise(g: MixedGraph, rule: int, xm: int, ym: int, zm: int, wm: int) -> bool:
    # The premise of a checked step, asked on its masks.
    if not zm:
        return True  # empty z: the rewrite is the identity
    cut = _cut(g, xm)
    if rule == 1:
        return not connects_route(MixedGraph._from_masks(g.n, cut),
                                  SeparationQuery._from_masks(ym, zm, xm | wm))
    cond = xm | wm | zm if rule == 2 else xm | wm
    return not _route_connected(cut, 0, ym, cond, zm)


@dataclass(frozen=True, init=False)
class RuleApplication:
    """One scripted do-calculus step: the rule and the masks ``xm``, ``ym``,
    ``zm``, ``wm`` of its sets (node i is bit i - 1), which equality and
    hashing compare.  ``x``, ``y``, ``z`` and ``w`` are frozenset views
    built on first access.  The constructor takes sets; it refuses a rule
    other than 1, 2 or 3 and a node outside ``1..MAX_GRAPH_NODES``, naming
    the lowest such node of the first set that holds one."""

    rule: int
    xm: int
    ym: int
    zm: int
    wm: int

    def __init__(self, rule: int, x: Iterable[int], y: Iterable[int], z: Iterable[int],
                 w: Iterable[int]):
        _check_rule(rule)
        xm, ym, zm, wm = (_node_mask(s, MAX_GRAPH_NODES) for s in (x, y, z, w))
        self.__dict__.update(rule=rule, xm=xm, ym=ym, zm=zm, wm=wm)

    @classmethod
    def _from_masks(cls, rule: int, xm: int, ym: int, zm: int, wm: int) -> "RuleApplication":
        """Trusted: a step built from masks the package read."""
        s = object.__new__(cls)
        s.__dict__.update(rule=rule, xm=xm, ym=ym, zm=zm, wm=wm)
        return s

    x = cached_property(lambda s: frozenset(_bits(s.xm)))
    y = cached_property(lambda s: frozenset(_bits(s.ym)))
    z = cached_property(lambda s: frozenset(_bits(s.zm)))
    w = cached_property(lambda s: frozenset(_bits(s.wm)))


_STEP_RE = re.compile(
    r"^rule\s+(?P<rule>\d+)\s+x=(?P<x>\S*)\s+y=(?P<y>\S*)\s+z=(?P<z>\S*)\s+w=(?P<w>\S*)$")


def parse_derivation(text: str, g: MixedGraph) -> tuple[RuleApplication, ...]:
    """Parse a derivation script for g: one ``rule <k> x=.. y=.. z=.. w=..``
    per line, sets comma-separated (indices, or labels when g has them),
    empty allowed.  ``#`` starts a comment.  Each set is read straight
    into a mask, each distinct node token checked against g's node range
    once, where it is first read."""
    nodes = _NodeTokens(g.n, g.node_names)
    steps = []
    for line_no, line in _lines(text):
        m = _STEP_RE.match(line)
        if not m:
            raise ParseError("expected 'rule <k> x=<set> y=<set> z=<set> w=<set>'",
                             line_no)
        rule = _integer(m.group("rule"), "rule", line_no)
        if rule not in (1, 2, 3):
            raise ParseError("rule must be 1, 2 or 3", line_no)
        nodes.line_no = line_no
        steps.append(RuleApplication._from_masks(
            rule, *map(nodes.mask, m.group("x", "y", "z", "w"))))
    return tuple(steps)


def check_derivation(g: MixedGraph, steps: Sequence[RuleApplication]) -> tuple[bool, ...]:
    """Replay scripted rule applications against the graph: one verdict per
    step, True where its premise holds.  Each step is range-checked against
    g by one shift; a step that fails it is refused as
    :func:`rule_applicable` refuses its sets."""
    verdicts = []
    for s in steps:
        masks = s.xm, s.ym, s.zm, s.wm
        if (s.xm | s.ym | s.zm | s.wm) >> g.n:  # a node past n
            for m in masks:
                g.node_mask(_bits(m))  # raises for the first set holding one
        _check_sets(*masks)
        verdicts.append(_premise(g, s.rule, *masks))
    return tuple(verdicts)
