"""The three workloads: seeded inputs, the op list, and the answer checks.

An op is one ``ampadmg`` command line.  ``build(name, seed, workdir)``
writes the inputs of a workload into ``workdir`` and returns its ops.  The
checks run after the timed loop, so they cost the measurement nothing.

* ``sweep`` -- the checker commands, one op per command, on graphs with
  6..9 nodes.  Separation criteria 1-4, ``markov`` and ``sem`` do nearly
  all the work; the learner none.
* ``learn`` -- one exhaustive ``learn`` per op over 4 nodes (34,752
  candidates per dialect).  Enumeration, graph validation, ``intervene``
  and the route automaton dominate; the CLI is negligible.
* ``query`` -- one-question commands (``sep``, ``intervene``, ``rule``)
  and derivation scripts on graphs with 16..32 nodes.  Parsing big graph
  files, the CLI front end and the rule premises dominate.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

# A pass over 20 graphs takes about 5.6 s, so a 25 s run repeats each op
# four times.
SWEEP_GRAPHS = 20
# Nine-node graphs come twice per cycle.  That puts the sweep's p90 inside
# the sem-check n=9 group rather than on the gap below it, where it would
# jump between runs.
SWEEP_SIZES = (6, 7, 8, 9, 9)
QUERY_SIZES = (16, 18, 20, 23, 25, 27, 30, 32)
QUERY_MIX = {"sep": 12, "intervene": 6, "rule": 6, "script": 8}
SCRIPT_STEPS = (20, 50)
# Three problems (alt, orig, alt) make a pass of about 8 s: three passes
# in a 25 s run.
LEARN_PROBLEMS = 3
LEARN_N = 4

# Mean seconds per op on the reference machine (README.md); with
# ``--seconds`` they fix each run's number of passes (``schedule``).
SWEEP_OP_S = 0.040
QUERY_OP_S = 0.0045
LEARN_OP_S = 2.7


@dataclass
class Op:
    kind: str
    argv: list
    expect: tuple = ()
    """Whatever the check needs; never shown to the program."""


@dataclass
class Inputs:
    ops: list
    warmup: list
    """One op per op kind, run before timing starts."""
    op_s: float
    """Mean seconds per op on the reference machine (README.md); it turns
    ``--seconds`` into a number of passes."""
    trace_ops: int
    """Length of the op-list prefix a traced run replays."""


def schedule(inputs: Inputs, seconds: float) -> int:
    """The number of passes over the op list a run of ``seconds`` times.

    The count follows from ``seconds`` alone, never from the clock, so
    every commit times the same ops equally often.
    """
    return max(1, round(seconds / (inputs.op_s * len(inputs.ops))))


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _set_arg(flag: str, nodes) -> list:
    return [flag, ",".join(str(v) for v in sorted(nodes))] if nodes else []


# -- sweep ---------------------------------------------------------------------


def _build_sweep(rng: random.Random, workdir: Path) -> Inputs:
    ops = []
    for i in range(SWEEP_GRAPHS):
        n = SWEEP_SIZES[i % len(SWEEP_SIZES)]
        g = _write(workdir, f"sweep{i}.g", gen.random_graph(rng, n, "alt"))
        c = _write(workdir, f"chain{i}.g", gen.chain_graph(rng, n))
        queries = n * (n - 1) // 2 * (1 << (n - 2))
        ops += [
            Op("equiv-check", ["equiv-check", "--graph", g], (n, queries)),
            Op("sem-check", ["sem-check", "--graph", g, "--seed", str(i)], (n,)),
            Op("ordered-local", ["markov-verify", "--graph", g,
                                 "--property", "ordered-local"], (n,)),
            Op("ordered-pairwise", ["markov-verify", "--graph", g, "--property",
                                    "ordered-pairwise", "--oracle", "gaussian",
                                    "--seed", str(i)], (n,)),
        ]
        ops += [Op(prop, ["markov-verify", "--graph", c, "--property", prop], (n,))
                for prop in ("amp-block", "amp-local", "amp-pairwise")]
    return Inputs(ops, ops[:7], SWEEP_OP_S, trace_ops=7 * 16)


_AGREE = {
    "equiv-check": re.compile(r"^(\d+) queries, criteria 1-4 agree$"),
    "sem-check": re.compile(r"^seed \d+, tol \S+: \d+ separations checked, 0 violations$"),
}
_NO_FAILURES = re.compile(r"^[a-z-]+: \d+ statements, 0 failures$")


def _check_sweep(op: Op, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    m = (_AGREE.get(op.kind) or _NO_FAILURES).match(lines[-1] if lines else "")
    if not m or len(lines) != 1:
        return f"no agreement line: {out[:200]!r}"
    if op.kind == "equiv-check" and int(m.group(1)) != op.expect[1]:
        return f"{m.group(1)} queries, expected {op.expect[1]}"
    return None


# -- learn ---------------------------------------------------------------------


def _library_separated(truth_text: str):
    import ampadmg

    g = ampadmg.parse(truth_text)

    def separated(x, y, cond, regime):
        gr = ampadmg.intervene(g, [regime]) if regime else g
        return ampadmg.separated(gr, ampadmg.SeparationQuery({x}, {y}, cond))

    return separated


def _learn_problem(rng, workdir, name, dialect, n, count, regime_count):
    truth = gen.random_graph(rng, n, dialect)
    text = gen.constraint_file(rng, n, count, _library_separated(truth), regime_count)
    path = _write(workdir, name, text)
    return Op(f"learn-{dialect}", ["learn", "--constraints", path, "--dialect", dialect],
              (text, truth))


def _build_learn(rng: random.Random, workdir: Path) -> Inputs:
    ops = [_learn_problem(rng, workdir, f"learn{i}.txt", ("alt", "orig")[i % 2],
                          LEARN_N, 10 + i, 2)
           for i in range(LEARN_PROBLEMS)]
    warmup = [_learn_problem(rng, workdir, f"warm-{d}.txt", d, 3, 4, 1)
              for d in ("alt", "orig")]
    return Inputs(ops, warmup, LEARN_OP_S, trace_ops=2)


def _check_learn(op: Op, rc: int, out: str) -> str | None:
    from ampadmg import parse
    from ampadmg.learner import parse_atom_line, parse_constraints, score

    if rc != 0:
        return f"exit code {rc}"
    text, truth = op.expect
    lines = out.splitlines()
    m = re.match(r"^optimal score: (\d+)$", lines[0] if lines else "")
    if not m or len(lines) < 2:
        return f"malformed learn output: {out[:200]!r}"
    best = int(m.group(1))
    problem = parse_constraints(text)
    for line in lines[1:]:
        s = score(parse_atom_line(line, problem.n), problem)
        if s != best:
            return f"model {line!r} rescored {s}, reported {best}"
    truth_score = score(parse(truth), problem)
    if truth_score is None or truth_score < best:
        return f"truth graph scores {truth_score}, below the optimum {best}"
    return None


# -- query ---------------------------------------------------------------------


def _build_query(rng: random.Random, workdir: Path) -> Inputs:
    script_count = QUERY_MIX["script"] * len(QUERY_SIZES)
    lo, hi = SCRIPT_STEPS
    steps = [lo + (hi - lo) * k // (script_count - 1) for k in range(script_count)]
    rng.shuffle(steps)
    ops = []
    for i, n in enumerate(QUERY_SIZES):
        dialect = ("alt", "orig")[i % 2]
        text = gen.random_graph(rng, n, dialect)
        g = _write(workdir, f"query{i}.g", text)
        for _ in range(QUERY_MIX["sep"]):
            nodes = rng.sample(range(1, n + 1), n)
            nx_, ny = rng.randint(1, 2), rng.randint(1, 2)
            x, y = nodes[:nx_], nodes[nx_:nx_ + ny]
            z = nodes[nx_ + ny:nx_ + ny + rng.randint(0, 4)]
            argv = ["sep", "--graph", g, *_set_arg("--x", x), *_set_arg("--y", y),
                    *_set_arg("--z", z)]
            ops.append(Op("sep", argv, (text, x, y, z)))
        for _ in range(QUERY_MIX["intervene"]):
            x = rng.sample(range(1, n + 1), rng.randint(1, 3))
            ops.append(Op("intervene", ["intervene", "--graph", g, *_set_arg("--x", x)],
                          (text, x)))
        for _ in range(QUERY_MIX["rule"]):
            step = gen.rule_step(rng, n)
            rule, x, y, z, w = step
            argv = ["rule", "--graph", g, "--rule", str(rule), *_set_arg("--x", x),
                    *_set_arg("--y", y), *_set_arg("--z", z), *_set_arg("--w", w)]
            ops.append(Op("rule", argv, (text, [step])))
        for k in range(QUERY_MIX["script"]):
            script = [gen.rule_step(rng, n) for _ in range(steps.pop())]
            s = _write(workdir, f"query{i}-{k}.txt", gen.derivation_script(script))
            ops.append(Op("script", ["rule", "--graph", g, "--script", s], (text, script)))
    rng.shuffle(ops)
    warmup = []
    for op in ops:
        if op.kind not in {w.kind for w in warmup}:
            warmup.append(op)
    return Inputs(ops, warmup, QUERY_OP_S, trace_ops=len(ops))


def _check_query(op: Op, rc: int, out: str, cache: dict) -> str | None:
    text = op.expect[0]
    g = cache.get(text)
    if g is None:
        g = cache[text] = oracle.parse_graph(text)
    if op.kind == "sep":
        _, x, y, z = op.expect
        want = oracle.separated(g, x, y, z)
        expected = ("separated\n" if want else "connected\n", 0 if want else 1)
        return None if (out, rc) == expected else f"sep gave {out.strip()!r}/{rc}, oracle {want}"
    if op.kind == "intervene":
        if rc != 0:
            return f"exit code {rc}"
        want = oracle.intervene(g, op.expect[1])
        return None if oracle.parse_graph(out) == want else "intervene result differs from oracle"
    verdicts = [oracle.rule_applicable(g, *step) for step in op.expect[1]]
    if op.kind == "rule":
        want = "applicable\n" if verdicts[0] else "not applicable\n"
        if out != want:
            return f"rule gave {out.strip()!r}, oracle {verdicts[0]}"
    else:
        got = out.splitlines()
        tags = ["  # applicable" if v else "  # NOT applicable" for v in verdicts]
        if len(got) != len(tags):
            return f"{len(got)} script lines for {len(tags)} steps"
        for k, (line, tag) in enumerate(zip(got, tags), start=1):
            if not line.endswith(tag):
                return f"script step {k} disagrees with the oracle"
    want_rc = 0 if all(verdicts) else 1
    return None if rc == want_rc else f"exit code {rc}, expected {want_rc}"


# -- dispatch ------------------------------------------------------------------


_BUILD = {"sweep": _build_sweep, "learn": _build_learn, "query": _build_query}
WORKLOADS = tuple(_BUILD)


def build(name: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``workdir``."""
    return _BUILD[name](random.Random(f"{name}:{seed}"), workdir)


def checker(name: str):
    """A function ``(op, rc, stdout) -> failure reason or None``."""
    if name == "sweep":
        return _check_sweep
    if name == "learn":
        return _check_learn
    cache: dict = {}
    return lambda op, rc, out: _check_query(op, rc, out, cache)
