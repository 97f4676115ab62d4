"""Command-line front end: one binary, one subcommand per operation.

Exit codes: 0 for success or an affirmative answer, 1 for a negative
answer (connected, rule not applicable, verification failures, no
feasible model), 2 for usage or input errors, 3 for internal failures.
Identical inputs and seeds produce identical output bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Sequence

from .docalc import (RuleApplication, check_derivation, intervene, parse_derivation,
                     rule_applicable)
from .errors import AmpAdmgError, NoFeasibleModelError, ParseError, SingularSubmatrixError
from .graph import (Dialect, MixedGraph, _bits, _labels, _NodeTokens, _submasks,
                    parse, serialize)
from .learner import (MAX_NODES_DEFAULT, atom_line, export_asp, learn,
                      parse_constraints)
from .markov import (CiStatement, amp_statements, gaussian_oracle,
                     ordered_local_statements, ordered_pairwise_statements,
                     separation_oracle, verify_statements)
from .sem import CI_TOL, _ci_tests, ci_test, implied_covariance, magnify, random_sem
from .separation import (SeparationQuery, _connected_lanes, _refuse_past_sweep_cap,
                         _reject_biarrows, _singleton_pairs, separated)


def _load_graph(path: str) -> MixedGraph:
    return parse(Path(path).read_text())


def _node_set(g: MixedGraph, raw: str | None) -> frozenset:
    """Comma-separated indices or labels; missing or empty means the empty set."""
    if raw is None:
        return frozenset()
    return g.mask_nodes(_NodeTokens(g.n, g.node_names).mask(raw))


def _non_negative(what: str, kind=int):
    """An argparse type for a finite number >= 0: numpy's generators take
    only such seeds and the learner only such penalties and node caps, and a
    negative, NaN or infinite tolerance would fail or pass every Gaussian
    check."""
    def parse_value(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{what} must be non-negative and finite, got {value}")
        return value
    return parse_value


def _names(label: list[str], mask: int) -> str:
    # The labels of the mask's nodes, rising; ``label`` is graph._labels(g).
    return ",".join([label[v] for v in _bits(mask)])


def _fmt_stmt(label: list[str], s: CiStatement) -> str:
    x, y, z = (_names(label, m) for m in (s.xm, s.ym, s.zm))
    return f"{{{x}}} _||_ {{{y}}} | {{{z}}}"


# -- subcommands -----------------------------------------------------------


def _cmd_sep(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    q = SeparationQuery(_node_set(g, args.x), _node_set(g, args.y),
                        _node_set(g, args.z))
    verdict = separated(g, q, criterion=args.criterion)
    if args.format == "json":
        print(json.dumps({"criterion": args.criterion, "separated": verdict}))
    else:
        print("separated" if verdict else "connected")
    return 0 if verdict else 1


def _cmd_equiv_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    pairs = _singleton_pairs(g.n)  # refuses a graph over the cap before its dialect
    _reject_biarrows(g, "path separation")  # criterion 1's refusal stands for 3 and 4
    checked = 0
    for xm, ym, rest in pairs:
        # One lane per z of the pair, set where the criterion finds x and y connected.
        lanes = [_connected_lanes(g, c, xm, ym, 0, rest) for c in (1, 2, 3, 4)]
        if len(set(lanes)) > 1:  # then find the first z the criteria split on
            k, zm = next((k, zm) for k, zm in enumerate(_submasks(rest))
                         if len({ln >> k & 1 for ln in lanes}) > 1)
            detail = " ".join(f"{c}:{'connected' if ln >> k & 1 else 'separated'}"
                              for c, ln in enumerate(lanes, 1))
            label = _labels(g)
            print(f"disagreement: x={_names(label, xm)} y={_names(label, ym)} "
                  f"z={{{_names(label, zm)}}}  {detail}")
            return 3
        checked += 1 << rest.bit_count()
    print(f"{checked} queries, criteria 1-4 agree")
    return 0


def _cmd_magnify(args: argparse.Namespace) -> int:
    sys.stdout.write(serialize(magnify(_load_graph(args.graph))))
    return 0


def _cmd_intervene(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    sys.stdout.write(serialize(intervene(g, _node_set(g, args.x))))
    return 0


def _fmt_step(label: list[str], s: RuleApplication) -> str:
    return (f"rule {s.rule} x={_names(label, s.xm)} y={_names(label, s.ym)} "
            f"z={_names(label, s.zm)} w={_names(label, s.wm)}")


def _cmd_rule(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.script:
        steps = parse_derivation(Path(args.script).read_text(), g)
        verdicts = check_derivation(g, steps)
        # Each output line stays parseable as a script line; the verdict
        # rides in a comment.
        label = _labels(g)
        for s, good in zip(steps, verdicts):
            tag = "applicable" if good else "NOT applicable"
            print(f"{_fmt_step(label, s)}  # {tag}")
        return 0 if all(verdicts) else 1
    if not args.y:
        raise ParseError("--y is required with --rule")
    ok = rule_applicable(g, args.rule, _node_set(g, args.x), _node_set(g, args.y),
                         _node_set(g, args.z), _node_set(g, args.w))
    print("applicable" if ok else "not applicable")
    return 0 if ok else 1


_FLAVOUR_OF = {"amp-block": "block-recursive", "amp-local": "local",
               "amp-pairwise": "pairwise"}


def _statements_for(g: MixedGraph, prop: str) -> tuple[CiStatement, ...]:
    if prop == "ordered-local":
        return ordered_local_statements(g)
    if prop == "ordered-pairwise":
        return ordered_pairwise_statements(g)
    return amp_statements(g, _FLAVOUR_OF[prop])


def _cmd_markov_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    _refuse_past_sweep_cap(g.n, "markov-verify")  # before any generator runs
    stmts = _statements_for(g, args.property)
    if args.oracle == "graph":
        oracle = separation_oracle(g, criterion=args.criterion)
    else:
        sigma = implied_covariance(random_sem(g, seed=args.seed))
        oracle = gaussian_oracle(sigma, tol=args.tol)
    failing = verify_statements(stmts, oracle)
    print(f"{args.property}: {len(stmts)} statements, {len(failing)} failures")
    label = _labels(g)
    for s in failing:
        print(f"FAIL {_fmt_stmt(label, s)}")
    return 0 if not failing else 1


_BATCH_TESTS = 1024  # sem-check ends a batch at the first pair's end at or past this many


def _cmd_sem_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    pairs = _singleton_pairs(g.n)  # refuses a graph over the cap before sigma is built
    # random_sem refuses biarrows, so it is the dialect check of every criterion.
    sigma = implied_covariance(random_sem(g, seed=args.seed))
    label = _labels(g)
    seps = violations = 0
    tests: list = []  # (x, y, zm) of each separating z, over consecutive pairs
    try:
        for xm, ym, rest in pairs:
            lanes = _connected_lanes(g, args.criterion, xm, ym, 0, rest)
            lo = rest & (1 << rest.bit_length() // 2) - 1  # lane k's z: k's bits spread on rest
            low, high, h = list(_submasks(lo)), list(_submasks(rest ^ lo)), lo.bit_count()
            x, y = xm.bit_length(), ym.bit_length()
            tests += [(x, y, low[(k - 1) & len(low) - 1] | high[(k - 1) >> h])
                      for k in _bits(~lanes & (1 << len(low) * len(high)) - 1)]
            if len(tests) >= _BATCH_TESTS:
                batch, tests = tests, []  # taken out first, so finally never reports it twice
                violations += _report_violations(label, sigma, batch, args.tol)
                seps += len(batch)
    finally:  # after a refused pair too, so the lines of the pairs before it print
        violations += _report_violations(label, sigma, tests, args.tol)
        seps += len(tests)
    print(f"seed {args.seed}, tol {args.tol:g}: "
          f"{seps} separations checked, {violations} violations")
    return 0 if violations == 0 else 1


def _report_violations(label: list[str], sigma, tests: list, tol: float) -> int:
    """Print a VIOLATION line for each test ``(x, y, zm)`` whose partial
    correlation is not below tol, in order, and count them.  A batch with a
    singular submatrix is replayed one test at a time through ``ci_test``,
    which prints the lines before that test and raises the error naming it."""
    try:
        verdicts = _ci_tests(sigma, tests, tol)
    except SingularSubmatrixError:
        verdicts = (ci_test(sigma, x, y, _bits(zm), tol=tol) for x, y, zm in tests)
    violations = 0
    for (x, y, zm), independent in zip(tests, verdicts):
        if not independent:
            violations += 1
            s = CiStatement._from_masks(1 << x - 1, 1 << y - 1, zm)
            print(f"VIOLATION {_fmt_stmt(label, s)}")
    return violations


_DIALECTS = {"alt": (Dialect.ALTERNATIVE,), "orig": (Dialect.ORIGINAL,),
             "both": (Dialect.ALTERNATIVE, Dialect.ORIGINAL)}


def _load_problem(args: argparse.Namespace):
    p = parse_constraints(Path(args.constraints).read_text())
    return replace(p, dialects=_DIALECTS[args.dialect],
                   line_penalty=args.line_penalty,
                   arrow_penalty=args.arrow_penalty,
                   biarrow_penalty=args.biarrow_penalty)


def _cmd_learn(args: argparse.Namespace) -> int:
    p = _load_problem(args)
    try:
        result = learn(p, max_n=args.max_n)
    except NoFeasibleModelError:
        print("no feasible model")
        return 1
    if args.format == "json":
        print(json.dumps({"optimal_score": result.optimal_score,
                          "models": [atom_line(m) for m in result.models]}))
    else:
        print(f"optimal score: {result.optimal_score}")
        for m in result.models:
            print(atom_line(m))
    return 0


def _cmd_export_asp(args: argparse.Namespace) -> int:
    sys.stdout.write(export_asp(_load_problem(args)))
    return 0


# -- parser ----------------------------------------------------------------


def _add_learn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--constraints", required=True, metavar="FILE",
                   help="constraint file (nodes/dep/indep/order/forbid/require)")
    p.add_argument("--dialect", choices=sorted(_DIALECTS), default="alt")
    for kind in ("line", "arrow", "biarrow"):
        p.add_argument(f"--{kind}-penalty", type=_non_negative(f"{kind} penalty"),
                       default=1, metavar="K")


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; help and usage go to each call's sys.stdout/stderr.
    top = argparse.ArgumentParser(
        prog="ampadmg",
        description="Mixed-graph separation, Markov statements, Gaussian "
                    "models, interventions and exact structure learning.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, description=help_)
        p.set_defaults(func=func)
        return p

    def graph_command(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = command(name, func, help_)
        p.add_argument("--graph", required=True, metavar="FILE",
                       help="graph file (nodes/arrow/line/biarrow)")
        return p

    p = graph_command("sep", _cmd_sep, "decide whether x and y are separated given z")
    p.add_argument("--criterion", type=int, choices=(1, 2, 3, 4), default=2)
    p.add_argument("--x", required=True, metavar="NODES",
                   help="comma-separated indices or labels")
    p.add_argument("--y", required=True, metavar="NODES")
    p.add_argument("--z", metavar="NODES")
    p.add_argument("--format", choices=("text", "json"), default="text")

    graph_command("equiv-check", _cmd_equiv_check,
                  "run all four criteria on every singleton query of a graph")

    graph_command("magnify", _cmd_magnify,
                  "print the graph with explicit noise nodes")

    p = graph_command("intervene", _cmd_intervene,
                      "print the graph after cutting the nodes in x")
    p.add_argument("--x", required=True, metavar="NODES")

    p = graph_command("rule", _cmd_rule,
                      "check rule premises, one step or a whole script")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rule", type=int, choices=(1, 2, 3))
    mode.add_argument("--script", metavar="FILE")
    p.add_argument("--x", metavar="NODES")
    p.add_argument("--y", metavar="NODES")
    p.add_argument("--z", metavar="NODES")
    p.add_argument("--w", metavar="NODES")

    p = graph_command("markov-verify", _cmd_markov_verify,
                      "generate Markov statements and verify them against an oracle")
    p.add_argument("--property", required=True,
                   choices=("ordered-local", "ordered-pairwise",
                            "amp-block", "amp-local", "amp-pairwise"))
    p.add_argument("--oracle", choices=("graph", "gaussian"), default="graph")
    p.add_argument("--criterion", type=int, choices=(1, 2, 3, 4), default=2)
    p.add_argument("--seed", type=_non_negative("seed"), default=0)
    p.add_argument("--tol", type=_non_negative("tolerance", float), default=CI_TOL)

    p = graph_command("sem-check", _cmd_sem_check,
                      "check separations against a random Gaussian model's "
                      "partial correlations")
    p.add_argument("--criterion", type=int, choices=(1, 2, 3, 4), default=2)
    p.add_argument("--seed", type=_non_negative("seed"), default=0)
    p.add_argument("--tol", type=_non_negative("tolerance", float), default=CI_TOL)

    p = command("learn", _cmd_learn,
                "list all penalty-minimal graphs satisfying weighted constraints")
    _add_learn_flags(p)
    p.add_argument("--max-n", type=_non_negative("max-n"), default=MAX_NODES_DEFAULT)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("export-asp", _cmd_export_asp,
                "print the equivalent answer-set program for a learning problem")
    _add_learn_flags(p)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return args.func(args)
    except (AmpAdmgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
