"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns text in the
package's own file formats, so the program under test only ever sees
files.  The same seed gives the same bytes: nothing here iterates over a
set or reads the clock.
"""

from __future__ import annotations

import random
from itertools import combinations

ARROW_DEGREE = 2.0
UND_DEGREE = 1.0
"""Arrows and undirected edges per node of a random graph, counted at
both ends."""
MAX_BLOCK = 3
P_LINE = 0.7
P_ARROW = 0.35
"""Chain graphs: the largest block, and the chance of a line inside a
block and of an arrow from an earlier block to a later one."""
FLIPS = 2
"""True dependences a constraint file may state as weighted independences."""


def _edge_lines(n, arrows, und, und_kind):
    out = [f"nodes {n}"]
    out += [f"arrow {t} {h}" for t, h in sorted(arrows)]
    out += [f"{und_kind} {a} {b}" for a, b in sorted(und)]
    return "\n".join(out) + "\n"


def random_graph(rng: random.Random, n: int, dialect: str) -> str:
    """A graph over nodes 1..n in the ``alt`` (lines) or ``orig``
    (biarrows) dialect.

    Arrows respect a random node order, so the directed part is acyclic.
    The two degrees fix the number of arrows and of undirected edges
    (``round(n * degree / 2)`` each), so graphs of one size cost about the
    same to analyse and large graphs stay sparse enough that separation
    answers are mixed.
    """
    if dialect not in ("alt", "orig"):
        raise ValueError(f"dialect must be alt or orig, got {dialect!r}")
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    pairs = list(combinations(range(1, n + 1), 2))
    arrows = [(a, b) if rank[a] < rank[b] else (b, a)
              for a, b in rng.sample(pairs, min(len(pairs), round(n * ARROW_DEGREE / 2)))]
    und = rng.sample(pairs, min(len(pairs), round(n * UND_DEGREE / 2)))
    return _edge_lines(n, arrows, und, "line" if dialect == "alt" else "biarrow")


def chain_graph(rng: random.Random, n: int) -> str:
    """An alternative-dialect chain graph: nodes fall into consecutive
    blocks of 1..MAX_BLOCK nodes, lines join nodes inside a block and
    arrows point only from an earlier block to a later one."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    blocks, i = [], 0
    while i < n:
        size = rng.randint(1, MAX_BLOCK)
        blocks.append(perm[i:i + size])
        i += size
    lines, arrows = [], []
    for k, block in enumerate(blocks):
        for a, b in combinations(sorted(block), 2):
            if rng.random() < P_LINE:
                lines.append((a, b))
        for later in blocks[k + 1:]:
            for t in block:
                for h in later:
                    if rng.random() < P_ARROW:
                        arrows.append((t, h))
    return _edge_lines(n, arrows, lines, "line")


def _fmt_set(nodes) -> str:
    return ",".join(str(v) for v in sorted(nodes))


def constraint_file(rng: random.Random, n: int, count: int, separated,
                    regime_count: int) -> str:
    """Weighted (in)dependence constraints read off a truth graph.

    ``separated(x, y, cond, regime)`` answers the truth graph's separation
    question (regime 0 is observational).  ``regime_count`` of the
    ``count`` constraints are taken under one regime node: each regime node
    costs the learner an ``intervene`` per candidate.  Up to ``FLIPS`` true
    dependences are stated as weighted independences, so the truth graph
    pays a soft violation but stays feasible; a true independence is never
    stated as a dependence.
    """
    plan = [0] * (count - regime_count) + [rng.randint(1, n)] * regime_count
    rng.shuffle(plan)
    rows, seen, flipped = [], set(), 0
    for regime in plan:
        while True:
            x, y = sorted(rng.sample(range(1, n + 1), 2))
            rest = [v for v in range(1, n + 1) if v not in (x, y)]
            cond = frozenset(v for v in rest if rng.random() < 0.35)
            if (x, y, cond, regime) not in seen:
                seen.add((x, y, cond, regime))
                break
        kind = "indep" if separated(x, y, cond, regime) else "dep"
        if kind == "dep" and flipped < FLIPS and rng.random() < 0.5:
            kind = "indep"
            flipped += 1
        rows.append(f"{kind} {x} {y} {{{_fmt_set(cond)}}} {regime} {rng.randint(1, 3)}")
    return f"nodes {n}\n" + "\n".join(rows) + "\n"


def rule_step(rng: random.Random, n: int) -> tuple[int, list, list, list, list]:
    """One do-calculus step: a rule number and pairwise disjoint node sets
    x, y, z, w with y and z non-empty."""
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    sizes = [rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 2)]
    out, i = [], 0
    for size in sizes:
        out.append(sorted(nodes[i:i + size]))
        i += size
    x, y, z, w = out
    return rng.randint(1, 3), x, y, z, w


def derivation_script(steps) -> str:
    """The script text for a list of :func:`rule_step` results."""
    return "".join(f"rule {rule} x={_fmt_set(x)} y={_fmt_set(y)} "
                   f"z={_fmt_set(z)} w={_fmt_set(w)}\n"
                   for rule, x, y, z, w in steps)
