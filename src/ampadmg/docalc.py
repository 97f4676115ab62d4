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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MalformedQueryError, OverlappingSetsError, ParseError
from .graph import MixedGraph, _bits, _integer, _label_index, _lines, _node_list
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
    if rule not in (1, 2, 3):
        raise ValueError(f"rule must be 1, 2 or 3, got {rule!r}")
    xm, ym, zm, wm = masks = [g.node_mask(s) for s in (x, y, z, w)]
    if not ym:
        raise MalformedQueryError("y must be non-empty")
    seen = 0
    for m in masks:
        if m & seen:
            i = next(_bits(m & seen))
            raise OverlappingSetsError(f"node {i} appears in two argument sets")
        seen |= m
    if not zm:
        return True  # empty z: the rewrite is the identity
    cut = _cut(g, xm)
    if rule == 1:
        return not connects_route(MixedGraph._from_masks(g.n, cut),
                                  SeparationQuery._from_masks(ym, zm, xm | wm))
    cond = xm | wm | zm if rule == 2 else xm | wm
    return not _route_connected(cut, 0, ym, cond, zm)


@dataclass(frozen=True)
class RuleApplication:
    """One scripted do-calculus step."""

    rule: int
    x: frozenset
    y: frozenset
    z: frozenset
    w: frozenset


_STEP_RE = re.compile(
    r"^rule\s+(?P<rule>\d+)\s+x=(?P<x>\S*)\s+y=(?P<y>\S*)\s+z=(?P<z>\S*)\s+w=(?P<w>\S*)$")


def parse_derivation(text: str, g: MixedGraph) -> tuple[RuleApplication, ...]:
    """Parse a derivation script for g: one ``rule <k> x=.. y=.. z=.. w=..``
    per line, sets comma-separated (indices, or labels when g has them),
    empty allowed.  ``#`` starts a comment.  Indices are checked against g's
    node range where they are read."""
    labels = _label_index(g.node_names)
    steps = []
    for line_no, line in _lines(text):
        m = _STEP_RE.match(line)
        if not m:
            raise ParseError("expected 'rule <k> x=<set> y=<set> z=<set> w=<set>'",
                             line_no)
        rule = _integer(m.group("rule"), "rule", line_no)
        if rule not in (1, 2, 3):
            raise ParseError("rule must be 1, 2 or 3", line_no)
        steps.append(RuleApplication(rule, *(
            _node_list(m.group(k), g.n, labels, line_no) for k in "xyzw")))
    return tuple(steps)


def check_derivation(g: MixedGraph, steps: Sequence[RuleApplication]) -> tuple[bool, ...]:
    """Replay scripted rule applications against the graph: one verdict per
    step, True where its premise holds."""
    return tuple(rule_applicable(g, s.rule, s.x, s.y, s.z, s.w) for s in steps)
