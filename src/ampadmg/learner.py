"""Exact structure learning from weighted (in)dependence constraints.

A candidate graph's score is its edge penalty plus the weights of the
independences it violates; a violated hard dependence makes it infeasible.
The learner returns every graph of the requested dialect(s) with the
minimum score.  Constraints may name a regime node, in which case they are
checked in the graph obtained by intervening on that node.

Both terms of a score are non-negative, so no graph whose edge penalty
alone exceeds the best score found so far can be optimal.  Candidates are
therefore enumerated in non-decreasing edge-penalty order and the search
stops at the first one past that bound (branch and bound, as in ASP-based
exact causal discovery).  With all penalties zero there is one level and
every candidate is scored.

The same problem can be exported as a logic program for an ASP solver.
The export has never been run against one, and it differs from
:func:`learn` in the two known ways that README names.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterator

from .docalc import _cut, intervene
from .errors import (
    NodeOutOfRangeError,
    NoFeasibleModelError,
    ParseError,
    ProblemTooLargeError,
)
from .graph import (Dialect, MixedGraph, _bits, _check_node_count, _integer, _lines,
                    _node_index, _node_mask, _NodeTokens, _peel, set_index)
from .separation import _route_connected

EDGE_KINDS = ("arrow", "line", "biarrow")

MAX_NODES_DEFAULT = 5


@dataclass(frozen=True)
class Constraint:
    """A weighted (in)dependence between two nodes.

    ``regime`` 0 is observational; a positive regime means the statement
    was observed under an intervention on that node.
    """

    kind: str  # "dep" or "indep"
    x: int
    y: int
    cond: frozenset = frozenset()
    regime: int = 0
    weight: int = 1

    def __post_init__(self):
        if self.kind not in ("dep", "indep"):
            raise ValueError(f"kind must be 'dep' or 'indep', got {self.kind!r}")
        object.__setattr__(self, "x", _node_index(self.x))
        object.__setattr__(self, "y", _node_index(self.y))
        object.__setattr__(self, "cond", frozenset(map(_node_index, self.cond)))
        object.__setattr__(self, "regime", _node_index(self.regime))
        if self.x == self.y:
            raise ValueError("constraint endpoints must differ")
        if self.x in self.cond or self.y in self.cond:
            raise ValueError("conditioning set must not contain an endpoint")
        # The regime node may coincide with an endpoint: "is y still tied to
        # the node we forced?" is a meaningful, and common, constraint.
        if not isinstance(self.weight, int) or self.weight < 0:
            raise ValueError("weight must be a non-negative integer")


@dataclass(frozen=True)
class LearnProblem:
    """Constraints plus search space description.

    ``forbidden`` and ``required`` hold ``(kind, a, b)`` edge priors;
    arrows are directional, lines and biarrows unordered.  ``ordering``,
    when given, forbids every arrow from a later to an earlier node.
    """

    n: int
    constraints: tuple = ()
    dialects: tuple = (Dialect.ALTERNATIVE,)
    line_penalty: int = 1
    arrow_penalty: int = 1
    biarrow_penalty: int = 1
    forbidden: frozenset = frozenset()
    required: frozenset = frozenset()
    ordering: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"node count must be a non-negative integer, got {self.n!r}")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "dialects", tuple(self.dialects))
        if not self.dialects or any(not isinstance(d, Dialect) for d in self.dialects):
            raise ValueError("dialects must be a non-empty tuple of Dialect")
        for p in (self.line_penalty, self.arrow_penalty, self.biarrow_penalty):
            if not isinstance(p, int) or p < 0:
                raise ValueError("edge penalties must be non-negative integers")
        for c in self.constraints:
            _node_mask((c.x, c.y, *c.cond), self.n)
            if c.regime and not 1 <= c.regime <= self.n:
                raise NodeOutOfRangeError(f"regime {c.regime} out of range")
        norm = frozenset(self._norm_prior(p) for p in self.forbidden)
        object.__setattr__(self, "forbidden", norm)
        normr = frozenset(self._norm_prior(p) for p in self.required)
        object.__setattr__(self, "required", normr)
        clash = norm & normr
        if clash:
            raise ValueError(f"edge both forbidden and required: {sorted(clash)[0]}")
        if self.ordering is not None:
            order = tuple(map(_node_index, self.ordering))
            if sorted(order) != list(range(1, self.n + 1)):
                raise ValueError("ordering must list each node exactly once")
            object.__setattr__(self, "ordering", order)

    @cached_property
    def _arrow_sets(self):
        # Built on first use by enumerate_graphs and shared by every dialect.
        return _acyclic_arrow_sets(self)

    @cached_property
    def _checks(self):
        # The highest node any constraint names, then one (regime mask, deps,
        # indeps) entry per regime in rising order, so score cuts each regime
        # once.  Each check is its (x, y, cond) masks plus its weight.
        top = 0
        regimes = defaultdict(lambda: {"dep": [], "indep": []})
        for c in self.constraints:
            top = max(top, c.x, c.y, c.regime, *c.cond)
            regimes[1 << (c.regime - 1) if c.regime else 0][c.kind].append(
                (1 << (c.x - 1), 1 << (c.y - 1), set_index(c.cond), c.weight))
        return top, tuple((rm, tuple(k["dep"]), tuple(k["indep"]))
                          for rm, k in sorted(regimes.items()))

    def _norm_prior(self, prior):
        kind, a, b = prior
        if kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {kind!r}")
        a, b = _node_index(a, self.n), _node_index(b, self.n)
        if a == b:
            raise ValueError("prior edge endpoints must differ")
        if kind != "arrow" and a > b:
            a, b = b, a
        return (kind, a, b)


@dataclass(frozen=True)
class LearnResult:
    optimal_score: int
    models: tuple


def regime_graph(g: MixedGraph, i: int) -> MixedGraph:
    """The graph in which constraints of regime i are evaluated."""
    return intervene(g, [i])


def _edge_penalty(g: MixedGraph, p: LearnProblem) -> int:
    # An arrow sets one bit of pa; a line or biarrow one bit at each end.
    pa, _ch, ne, bi = g._adj
    return (sum(map(int.bit_count, pa)) * p.arrow_penalty
            + sum(map(int.bit_count, ne)) // 2 * p.line_penalty
            + sum(map(int.bit_count, bi)) // 2 * p.biarrow_penalty)


def score(g: MixedGraph, p: LearnProblem) -> int | None:
    """Edge penalties plus violated independence weights, or None when a
    hard dependence fails."""
    top, regimes = p._checks
    if top > g.n:
        raise NodeOutOfRangeError(f"constraint node {top} out of range 1..{g.n}")
    total = 0
    for rm, deps, indeps in regimes:
        adj = _cut(g, rm)
        for xm, ym, zm, _w in deps:
            if not _route_connected(adj, xm, ym, zm):
                return None
        for xm, ym, zm, weight in indeps:
            if _route_connected(adj, xm, ym, zm):
                total += weight
    return total + _edge_penalty(g, p)


def _und_options(p: LearnProblem, dialect: Dialect, i: int, j: int) -> list[bool]:
    # Allowed undirected-edge options for the pair i < j under the priors.
    und_kind = "line" if dialect is Dialect.ALTERNATIVE else "biarrow"
    other_kind = "biarrow" if dialect is Dialect.ALTERNATIVE else "line"
    if (other_kind, i, j) in p.required:
        return []  # the required edge kind does not exist in this dialect
    if (und_kind, i, j) in p.required:
        return [True]
    return [False] if (und_kind, i, j) in p.forbidden else [False, True]


def _arrow_options(p: LearnProblem, i: int, j: int) -> list[int]:
    # Allowed arrow options for the pair i < j under the priors: none (0),
    # i -> j (1), j -> i (-1).  They do not depend on the dialect.
    def allowed(t, h):
        return (("arrow", t, h) not in p.forbidden and ("arrow", h, t) not in p.required
                and (p.ordering is None or p.ordering.index(t) < p.ordering.index(h)))
    required = {("arrow", i, j), ("arrow", j, i)} & p.required
    return [0] * (not required) + [1] * allowed(i, j) + [-1] * allowed(j, i)


def _acyclic_arrow_sets(p: LearnProblem) -> dict:
    # Arrow count -> [(pa, ch)] for every acyclic arrow set the priors allow,
    # in the order the pairs' arrow options are scanned.
    n = p.n
    pairs = list(combinations(range(1, n + 1), 2))
    dags = defaultdict(list)
    for combo in product(*(_arrow_options(p, i, j) for i, j in pairs)):
        pa = [0] * (n + 1)
        ch = [0] * (n + 1)
        for (i, j), a in zip(pairs, combo):
            ib, jb = 1 << (i - 1), 1 << (j - 1)
            if a == 1:
                pa[j] |= ib
                ch[i] |= jb
            elif a == -1:
                pa[i] |= jb
                ch[j] |= ib
        if len(_peel(pa, ch, n)) == n:
            dags[len(combo) - combo.count(0)].append((pa, ch))
    return dags


def enumerate_graphs(n: int, dialect: Dialect,
                     p: LearnProblem | None = None) -> Iterator[MixedGraph]:
    """Every valid graph of the dialect over n nodes, priors respected, in
    non-decreasing order of edge penalty under ``p``'s penalties; n must
    be ``p.n``.

    The acyclic arrow sets and the undirected-edge sets are each built
    once and grouped by edge count; the arrow sets do not depend on the
    dialect, so ``p`` keeps them for every dialect it is asked about.  A
    level is every pairing of an arrow count k with an undirected count m
    of equal penalty, and each level's graphs are built only when the
    consumer reaches it.  The order is deterministic: levels by
    (penalty, k, m), then arrow sets and undirected sets in the order the
    pair states are scanned.
    """
    if p is None:
        p = LearnProblem(n)
    elif n != p.n:
        raise ValueError(f"node count {n} differs from the problem's {p.n}")
    pairs = list(combinations(range(1, n + 1), 2))
    und_options = [_und_options(p, dialect, i, j) for i, j in pairs]
    if not all(und_options):
        return
    dags = p._arrow_sets
    unds = defaultdict(list)  # undirected-edge count -> [masks]
    for combo in product(*und_options):
        und = [0] * (n + 1)
        for (i, j), u in zip(pairs, combo):
            if u:
                und[i] |= 1 << (j - 1)
                und[j] |= 1 << (i - 1)
        unds[sum(combo)].append(und)
    alternative = dialect is Dialect.ALTERNATIVE
    und_penalty = p.line_penalty if alternative else p.biarrow_penalty
    levels = sorted((k * p.arrow_penalty + m * und_penalty, k, m)
                    for k in dags for m in unds)
    zero = [0] * (n + 1)
    for _penalty, k, m in levels:
        for pa, ch in dags[k]:
            for und in unds[m]:
                adj = (pa, ch, und, zero) if alternative else (pa, ch, zero, und)
                yield MixedGraph._from_masks(n, adj)


def atom_line(g: MixedGraph) -> str:
    """One-line rendering of a graph as solver-style atoms: lines, then
    biarrows, then arrows, each sorted."""
    atoms = [f"line({a},{b})" for a, b in sorted(g.lines)]
    atoms += [f"biarrow({a},{b})" for a, b in sorted(g.biarrows)]
    atoms += [f"arrow({t},{h})" for t, h in sorted(g.arrows)]
    return " ".join(atoms)


def parse_atom_line(text: str, n: int) -> MixedGraph:
    """Inverse of :func:`atom_line` for graphs over n nodes."""
    arrows, lines, biarrows = set(), set(), set()
    for tok in text.split():
        m = _ATOM_RE.match(tok)
        if not m:
            raise ParseError(f"unrecognised atom {tok!r}")
        kind, a, b = m.group(1), _integer(m.group(2), "node"), _integer(m.group(3), "node")
        {"arrow": arrows, "line": lines, "biarrow": biarrows}[kind].add((a, b))
    return MixedGraph(n, arrows, lines, biarrows)


_ATOM_RE = re.compile(r"^(arrow|line|biarrow)\((\d+),(\d+)\)$")


def learn(p: LearnProblem, max_n: int = MAX_NODES_DEFAULT) -> LearnResult:
    """All score-minimising graphs, by bound-ordered exact search.

    Each dialect's candidates arrive in non-decreasing edge penalty
    (:func:`enumerate_graphs`).  A score is never below the edge penalty,
    so a dialect's search stops at its first candidate whose penalty
    exceeds the best score found so far; that best score carries over to
    the next dialect.  Models found in several dialects are reported once;
    the result list is sorted by the atom-line rendering.
    """
    if p.n > max_n:
        raise ProblemTooLargeError(
            f"n={p.n} exceeds the exhaustive-search cap of {max_n}")
    best: int | None = None
    models: dict[MixedGraph, None] = {}
    for dialect in p.dialects:
        for g in enumerate_graphs(p.n, dialect, p):
            if best is not None and _edge_penalty(g, p) > best:
                break
            s = score(g, p)
            if s is None:
                continue
            if best is None or s < best:
                best = s
                models = {g: None}
            elif s == best:
                models[g] = None
    if best is None:
        raise NoFeasibleModelError(
            "no candidate graph respects the priors and every hard dependence")
    ordered = sorted(models, key=atom_line)
    return LearnResult(best, tuple(ordered))


# -- constraint file format ---------------------------------------------------


def parse_constraints(text: str) -> LearnProblem:
    """Parse the constraint file format.

    ``nodes <n>`` first, with n at most ``MAX_GRAPH_NODES``, then any of::

        dep <x> <y> {<comma-set or empty>} <regime> <weight>
        indep <x> <y> {<comma-set or empty>} <regime> <weight>
        order <i> <j> ...
        forbid <kind> <i> <j>
        require <kind> <i> <j>

    Weights are integers; fractional weights are rejected.
    """
    n = None
    constraints = []
    ordering = None
    forbidden = set()
    required = set()
    for line_no, line in _lines(text):
        tokens = line.split()
        kw = tokens[0]
        if kw == "nodes":
            if n is not None:
                raise ParseError("duplicate nodes line", line_no)
            if len(tokens) != 2:
                raise ParseError("nodes line needs a count", line_no)
            n = _integer(tokens[1], "node count", line_no)
            _check_node_count(n, line_no)
            nodes = _NodeTokens(n)
            continue
        if n is None:
            raise ParseError("first line must declare nodes", line_no)
        nodes.line_no = line_no
        if kw in ("dep", "indep"):
            if len(tokens) != 6:
                raise ParseError(f"{kw} needs x y {{set}} regime weight", line_no)
            x, y = nodes[tokens[1]], nodes[tokens[2]]
            braced = tokens[3]
            if not (braced.startswith("{") and braced.endswith("}")):
                raise ParseError("conditioning set must be braced, e.g. {1,3} or {}",
                                 line_no)
            cond = frozenset(_bits(nodes.mask(braced[1:-1])))
            regime = _integer(tokens[4], "regime", line_no)
            if not 0 <= regime <= n:
                raise ParseError(f"regime {regime} out of range 0..{n}", line_no)
            weight = _integer(tokens[5], "weight", line_no)
            try:
                constraints.append(Constraint(kw, x, y, cond, regime, weight))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
        elif kw == "order":
            if ordering is not None:
                raise ParseError("duplicate order line", line_no)
            ordering = tuple(nodes[t] for t in tokens[1:])
            if sorted(ordering) != list(range(1, n + 1)):
                raise ParseError("ordering must list each node exactly once", line_no)
        elif kw in ("forbid", "require"):
            if len(tokens) != 4 or tokens[1] not in EDGE_KINDS:
                raise ParseError(f"{kw} needs an edge kind and two nodes", line_no)
            a, b = (nodes[t] for t in tokens[2:])
            if a == b:
                raise ParseError("prior edge endpoints must differ", line_no)
            (forbidden if kw == "forbid" else required).add((tokens[1], a, b))
        else:
            raise ParseError(f"unrecognised line {line!r}", line_no)
    if n is None:
        raise ParseError("missing nodes line")
    try:
        return LearnProblem(n, tuple(constraints), forbidden=frozenset(forbidden),
                            required=frozenset(required), ordering=ordering)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# -- ASP export ---------------------------------------------------------------

_ASP_BASE = """\
node(X) :- nodes(N), X=1..N.

{{ line(X,Y,0) }} :- node(X), node(Y), X != Y.
{{ arrow(X,Y,0) }} :- node(X), node(Y), X != Y.
line(X,Y,I) :- line(X,I,0), line(I,Y,0), node(I), X != Y, I > 0.
arrow(X,Y,I) :- arrow(X,Y,0), node(I), Y != I, I > 0.
line(X,Y,I) :- line(Y,X,I).
:- arrow(X,Y,I), arrow(Y,X,I).

ancestor(X,Y) :- arrow(X,Y,0).
ancestor(X,Y) :- ancestor(X,Z), ancestor(Z,Y).
:- ancestor(X,Y), arrow(Y,X,0).

inside_set(X,C) :- node(X), set(C), 2**(X-1) & C != 0.
outside_set(X,C) :- node(X), set(C), 2**(X-1) & C == 0.

end_line(X,Y,C,I) :- line(X,Y,I), outside_set(X,C).
end_head(X,Y,C,I) :- arrow(X,Y,I), outside_set(X,C).
end_tail(X,Y,C,I) :- arrow(Y,X,I), outside_set(X,C).

end_line(X,Y,C,I) :- end_line(X,Z,C,I), line(Z,Y,I), outside_set(Z,C).
end_line(X,Y,C,I) :- end_tail(X,Z,C,I), line(Z,Y,I), outside_set(Z,C).
end_head(X,Y,C,I) :- end_line(X,Z,C,I), arrow(Z,Y,I), outside_set(Z,C).
end_head(X,Y,C,I) :- end_head(X,Z,C,I), arrow(Z,Y,I), outside_set(Z,C).
end_head(X,Y,C,I) :- end_tail(X,Z,C,I), arrow(Z,Y,I), outside_set(Z,C).
end_tail(X,Y,C,I) :- end_tail(X,Z,C,I), arrow(Y,Z,I), outside_set(Z,C).

end_line(X,Y,C,I) :- end_head(X,Z,C,I), line(Z,Y,I), inside_set(Z,C).
end_tail(X,Y,C,I) :- end_line(X,Z,C,I), arrow(Y,Z,I), inside_set(Z,C).
end_tail(X,Y,C,I) :- end_head(X,Z,C,I), arrow(Y,Z,I), inside_set(Z,C).

con(X,Y,C,I) :- end_line(X,Y,C,I), X != Y, outside_set(Y,C).
con(X,Y,C,I) :- end_head(X,Y,C,I), X != Y, outside_set(Y,C).
con(X,Y,C,I) :- end_tail(X,Y,C,I), X != Y, outside_set(Y,C).
con(X,Y,C,I) :- con(Y,X,C,I).

:- dep(X,Y,C,I,W), not con(X,Y,C,I).

:~ indep(X,Y,C,I,W), con(X,Y,C,I). [W,X,Y,C,I]

:~ line(X,Y,0), X < Y. [{lp},X,Y,1]
:~ arrow(X,Y,0). [{ap},X,Y,2]

#show.
#show line(X,Y) : line(X,Y,0), X < Y.
#show arrow(X,Y) : arrow(X,Y,0).
"""

_ASP_BIARROW = """\
{{ biarrow(X,Y,0) }} :- node(X), node(Y), X != Y.
:- biarrow(X,Y,0), line(Z,W,0).
biarrow(X,Y,I) :- biarrow(X,Y,0), node(I), X != I, Y != I, I > 0.
biarrow(X,Y,I) :- biarrow(Y,X,I).

end_head(X,Y,C,I) :- biarrow(X,Y,I), outside_set(X,C).
end_head(X,Y,C,I) :- end_tail(X,Z,C,I), biarrow(Z,Y,I), outside_set(Z,C).
end_head(X,Y,C,I) :- end_head(X,Z,C,I), biarrow(Z,Y,I), inside_set(Z,C).

:~ biarrow(X,Y,0), X < Y. [{bp},X,Y,3]

#show biarrow(X,Y) : biarrow(X,Y,0), X < Y.
"""


def export_asp(p: LearnProblem) -> str:
    """Render the problem as a logic program for an ASP solver.

    The program enumerates candidate graphs, reproduces the walk
    reachability fixpoint as ``end_*`` rules, rejects models that violate a
    ``dep`` atom and weighs violated ``indep`` atoms plus edges.  Output is
    byte-stable for a given problem.  A problem whose largest set index
    ``2^n - 1`` has more digits than ``str()`` converts raises
    :class:`ProblemTooLargeError`.
    """
    try:
        top = str((1 << p.n) - 1)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ProblemTooLargeError(
            f"n={p.n} is too large to print the set indices") from None
    out = [_ASP_BASE.format(lp=p.line_penalty, ap=p.arrow_penalty)]
    if Dialect.ORIGINAL in p.dialects:
        out.append(_ASP_BIARROW.format(bp=p.biarrow_penalty))
        if Dialect.ALTERNATIVE not in p.dialects:
            out.append(":- line(X,Y,0).\n")
    if p.ordering is not None:
        pos = {v: k for k, v in enumerate(p.ordering)}
        bans = sorted((t, h) for t in range(1, p.n + 1) for h in range(1, p.n + 1)
                      if t != h and pos[t] > pos[h])
        out.append("".join(f":- arrow({t},{h},0).\n" for t, h in bans))
    prior_atoms = []
    for kind, a, b in sorted(p.forbidden):
        prior_atoms.append(f":- {kind}({a},{b},0).\n")
    for kind, a, b in sorted(p.required):
        prior_atoms.append(f":- not {kind}({a},{b},0).\n")
    if prior_atoms:
        out.append("".join(prior_atoms))
    facts = [f"nodes({p.n}).", f"set(0..{top})."]
    for c in p.constraints:
        facts.append(f"{c.kind}({c.x},{c.y},{set_index(c.cond)},"
                     f"{c.regime},{c.weight}).")
    out.append("\n".join(facts) + "\n")
    return "\n".join(out)
