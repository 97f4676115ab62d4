"""Answer checks that do not run the engines they check.

* Graph surgery (``intervene`` and regime indicators) is re-implemented
  here on plain edge sets, straight from the definitions in the package
  documentation.
* Separation is decided by networkx's ``is_d_separator`` on graphs without
  lines, after each biarrow is replaced by a latent common parent.  This
  shares no code with ``ampadmg.separation``.
* Graphs that keep lines have no external oracle, so they are decided by
  the package's criterion 3 (reachability in the augmented graph), which
  shares no code with criterion 2, the engine behind ``sep`` and ``rule``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Plain edge sets over nodes 1..n; lines and biarrows as sorted pairs."""

    n: int
    arrows: frozenset
    lines: frozenset = frozenset()
    biarrows: frozenset = frozenset()


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def parse_graph(text: str) -> Graph:
    """Read the ``nodes <n>`` / ``arrow|line|biarrow a b`` format with
    numeric node ids, which is what the generators and ``intervene`` emit
    for unnamed graphs."""
    n = None
    edges = {"arrow": set(), "line": set(), "biarrow": set()}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "nodes":
            n = int(tokens[1])
            continue
        kind, a, b = tokens[0], int(tokens[1]), int(tokens[2])
        edges[kind].add((a, b) if kind == "arrow" else _pair(a, b))
    if n is None:
        raise ValueError("graph text has no nodes line")
    return Graph(n, frozenset(edges["arrow"]), frozenset(edges["line"]),
                 frozenset(edges["biarrow"]))


def intervene(g: Graph, x) -> Graph:
    """Cut arrows into x; drop lines and biarrows touching x, but first
    join every two outside nodes that a line path through x connects."""
    x = frozenset(x)
    arrows = frozenset((t, h) for t, h in g.arrows if h not in x)
    biarrows = frozenset(e for e in g.biarrows if not set(e) & x)
    lines = {e for e in g.lines if not set(e) & x}
    nbrs = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.lines:
        nbrs[a].add(b)
        nbrs[b].add(a)
    done = set()
    for start in sorted(x):
        if start in done:
            continue
        block, todo, border = {start}, [start], set()
        while todo:
            v = todo.pop()
            for u in nbrs[v]:
                if u not in x:
                    border.add(u)
                elif u not in block:
                    block.add(u)
                    todo.append(u)
        done |= block
        border = sorted(border)
        lines |= {(a, b) for i, a in enumerate(border) for b in border[i + 1:]}
    return Graph(g.n, arrows, frozenset(lines), biarrows)


def with_regimes(g: Graph, targets) -> tuple[Graph, frozenset]:
    """Add indicator n+k+1 pointing into the k-th smallest target."""
    targets = sorted(targets)
    flags = {v: g.n + k + 1 for k, v in enumerate(targets)}
    arrows = g.arrows | {(f, v) for v, f in flags.items()}
    return (Graph(g.n + len(targets), frozenset(arrows), g.lines, g.biarrows),
            frozenset(flags.values()))


def separated(g: Graph, x, y, z) -> bool:
    """Is x separated from y given z?"""
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    # Imported on first use: checks run after the timed loop, and networkx
    # must not add to set-up time or to the peak RSS measured before them.
    if g.lines:
        import ampadmg
        mg = ampadmg.MixedGraph(g.n, g.arrows, g.lines)
        return ampadmg.separated(mg, ampadmg.SeparationQuery(x, y, z), criterion=3)
    import networkx as nx
    dag = nx.DiGraph()
    dag.add_nodes_from(range(1, g.n + 1))
    dag.add_edges_from(g.arrows)
    for a, b in g.biarrows:
        latent = ("latent", a, b)
        dag.add_edges_from([(latent, a), (latent, b)])
    return nx.is_d_separator(dag, set(x), set(y), set(z))


def rule_applicable(g: Graph, rule: int, x, y, z, w) -> bool:
    """The premise of do-calculus rule 1, 2 or 3 (see ``ampadmg.docalc``)."""
    x, y, z, w = (frozenset(s) for s in (x, y, z, w))
    if not z:
        return True
    if rule == 1:
        return separated(intervene(g, x), y, z, x | w)
    big, flags = with_regimes(g, z)
    cond = x | w | z if rule == 2 else x | w
    return separated(intervene(big, x), y, flags, cond)
