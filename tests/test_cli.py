"""Command-line driver: exit codes, output shapes and round-trips.

Everything runs in process through main(argv) so the exit code and the
captured text are asserted together.  Exit conventions: 0 affirmative,
1 negative answer, 2 usage or parse trouble, 3 internal failure.
"""

import ast
import contextlib
import hashlib
import io
import json
import random
import re
import shlex
from collections import Counter
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampadmg import (
    AmpAdmgError,
    Dialect,
    MixedGraph,
    export_asp,
    intervene,
    magnify,
    parse,
    parse_constraints,
    parse_derivation,
    serialize,
)
import ampadmg
from ampadmg import cli, markov, separation
from ampadmg.markov import MAX_BLOCK_COMPONENT
from ampadmg.cli import main, run
from ampadmg.separation import MAX_SWEEP_NODES

from conftest import DATA, random_graph

ROOT = DATA.parent.parent


def graph_file(tmp_path, text):
    p = tmp_path / "g.g"
    p.write_text(text)
    return str(p)


# -- sep ---------------------------------------------------------------------


def test_sep_connected_prints_and_exits_1(capsys):
    code = main(["sep", "--graph", str(DATA / "double-edge.g"),
                 "--criterion", "2", "--x", "A", "--y", "D", "--z", "B"])
    assert code == 1
    assert capsys.readouterr().out == "connected\n"


def test_sep_separated_prints_and_exits_0(capsys):
    code = main(["sep", "--graph", str(DATA / "mixed6.g"),
                 "--x", "A", "--y", "E"])
    assert code == 0
    assert capsys.readouterr().out == "separated\n"


def test_sep_same_verdict_under_every_criterion(capsys):
    for crit in "1234":
        code = main(["sep", "--graph", str(DATA / "double-edge.g"),
                     "--criterion", crit, "--x", "A", "--y", "D", "--z", "B"])
        assert code == 1
        assert capsys.readouterr().out == "connected\n"


def test_sep_json_format(capsys):
    code = main(["sep", "--graph", str(DATA / "double-edge.g"),
                 "--x", "A", "--y", "D", "--z", "B", "--format", "json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "criterion": 2, "separated": False}


def test_sep_accepts_indices_and_label_lists(capsys):
    for x, y, z in (("1", "3", "2"), ("A", "D", "B")):
        assert main(["sep", "--graph", str(DATA / "double-edge.g"),
                     "--x", x, "--y", y, "--z", z]) == 1
    code = main(["sep", "--graph", str(DATA / "mixed6.g"),
                 "--x", "A", "--y", "E", "--z", "B,F"])
    assert code == 0


def test_sep_unknown_label_is_usage_error(capsys):
    code = main(["sep", "--graph", str(DATA / "double-edge.g"),
                 "--x", "Q", "--y", "D"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sep_missing_flags_is_usage_error(capsys):
    assert main(["sep"]) == 2
    assert main(["sep", "--graph", str(DATA / "double-edge.g")]) == 2


def test_missing_graph_file_is_usage_error(capsys):
    code = main(["sep", "--graph", "no-such-file.g", "--x", "A", "--y", "B"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unreadable_graph_text_is_usage_error(tmp_path, capsys):
    g = graph_file(tmp_path, "nodes A B\narrow A Q\n")
    code = main(["sep", "--graph", g, "--x", "A", "--y", "B"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_internal_failure_exits_3(capsys, monkeypatch):
    import ampadmg.cli
    def boom(*a, **k):
        raise RuntimeError("induced")
    monkeypatch.setattr(ampadmg.cli, "separated", boom)
    code = main(["sep", "--graph", str(DATA / "double-edge.g"),
                 "--x", "A", "--y", "D"])
    assert code == 3
    assert "RuntimeError" in capsys.readouterr().err


def test_run_raises_system_exit(monkeypatch):
    monkeypatch.setattr("sys.argv", ["ampadmg", "sep", "--graph",
                                     str(DATA / "mixed6.g"),
                                     "--x", "A", "--y", "E"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["sep", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_one_parser_serves_every_call(capsys):
    # The parser is built once per process; each call must print what it
    # prints with a fresh parser, help and usage errors included.
    sep = ["sep", "--graph", str(DATA / "double-edge.g"),
           "--x", "A", "--y", "D", "--z", "B"]
    argvs = (sep, ["sep", "--graph", str(DATA / "double-edge.g"), "--x", "A"],
             ["sep", "--help"], sep)
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append((main(argv), capsys.readouterr()))
    cli._build_parser.cache_clear()
    assert [(main(argv), capsys.readouterr()) for argv in argvs] == alone
    assert [code for code, _ in alone] == [1, 2, 0, 1]
    assert cli._build_parser() is cli._build_parser()


# -- equiv-check -------------------------------------------------------------


def test_equiv_check_reports_query_count(capsys):
    assert main(["equiv-check", "--graph", str(DATA / "double-edge.g")]) == 0
    assert capsys.readouterr().out == "6 queries, criteria 1-4 agree\n"
    assert main(["equiv-check", "--graph", str(DATA / "chain-lines.g")]) == 0
    assert capsys.readouterr().out == "24 queries, criteria 1-4 agree\n"
    assert main(["equiv-check", "--graph", str(DATA / "mixed6.g")]) == 0
    assert capsys.readouterr().out == "240 queries, criteria 1-4 agree\n"


def test_equiv_check_reports_a_disagreement_and_exits_3(capsys, monkeypatch):
    # Every criterion comes from one kernel table, asked on masks once per
    # pair; it answers one lane per z of the pair, lane 1 being z = {B}.
    real = cli._connected_lanes

    def criterion_4_flips_one(g, criterion, xm, ym, zm, rest):
        lanes = real(g, criterion, xm, ym, zm, rest)
        return lanes ^ 0b10 if criterion == 4 and (xm, ym) == (0b001, 0b100) else lanes

    monkeypatch.setattr(cli, "_connected_lanes", criterion_4_flips_one)
    assert main(["equiv-check", "--graph", str(DATA / "double-edge.g")]) == 3
    assert capsys.readouterr().out == (
        "disagreement: x=A y=D z={B}  1:connected 2:connected 3:connected 4:separated\n")


def test_equiv_check_reports_a_lane_disagreement_and_exits_3(capsys, monkeypatch):
    # Criterion 2 comes from the lane kernel, one lane per z of the pair.
    real = separation._route_lanes

    def lane_of_b_flips(adj, xm, ym, zm, rest):
        lanes = real(adj, xm, ym, zm, rest)
        return lanes ^ 0b10 if (xm, ym) == (0b001, 0b100) else lanes

    monkeypatch.setattr(separation, "_route_lanes", lane_of_b_flips)
    assert main(["equiv-check", "--graph", str(DATA / "double-edge.g")]) == 3
    assert capsys.readouterr().out == (
        "disagreement: x=A y=D z={B}  1:connected 2:separated 3:connected 4:connected\n")


@pytest.mark.parametrize("criterion", [3, 4])
def test_equiv_check_reports_a_moral_lane_disagreement_and_exits_3(criterion, capsys,
                                                                   monkeypatch):
    # Criteria 3 and 4 come from the augmented-graph lane kernel, one lane per z.
    real = separation._moral_lanes

    def lane_of_b_flips(g, c, xm, ym, zm, rest):
        lanes = real(g, c, xm, ym, zm, rest)
        return lanes ^ 0b10 if c == criterion and (xm, ym) == (0b001, 0b100) else lanes

    monkeypatch.setattr(separation, "_moral_lanes", lane_of_b_flips)
    assert main(["equiv-check", "--graph", str(DATA / "double-edge.g")]) == 3
    verdicts = " ".join(f"{c}:{'separated' if c == criterion else 'connected'}"
                        for c in (1, 2, 3, 4))
    assert capsys.readouterr().out == f"disagreement: x=A y=D z={{B}}  {verdicts}\n"


MARKOV_GENERATORS = {"ordered-local": "ordered_local_statements",
                     "ordered-pairwise": "ordered_pairwise_statements",
                     "amp-block": "amp_statements", "amp-local": "amp_statements",
                     "amp-pairwise": "amp_statements"}


def test_sweep_commands_ask_through_the_cli_names(capsys, monkeypatch):
    # bench/spans.py counts the sweeps' questions by wrapping cli.separated
    # and cli.ci_test, and traces the Markov generators by their cli names.
    # The sweeps ask for each pair's separating z by its cli name, once per
    # pair and criterion, and the Gaussian test one _ci_tests call per batch
    # of pairs, here all 15 of them; neither asks separated() per query.
    asked = Counter()

    def counting(name, key=None):
        real = getattr(cli, name)

        def count(*args, **kwargs):
            asked[key(*args, **kwargs) if key else name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, count)

    counting("separated", lambda g, q, criterion=2: criterion)
    counting("_connected_lanes", lambda g, criterion, xm, ym, zm, rest: ("masks", criterion))
    for name in ("ci_test", "_ci_tests"):
        counting(name)
    assert main(["equiv-check", "--graph", str(DATA / "mixed6.g")]) == 0
    assert capsys.readouterr().out == "240 queries, criteria 1-4 agree\n"
    assert asked == {("masks", 1): 15, ("masks", 2): 15, ("masks", 3): 15, ("masks", 4): 15}
    asked.clear()
    assert main(["sem-check", "--graph", str(DATA / "mixed6.g")]) == 0
    assert capsys.readouterr().out == "seed 0, tol 1e-07: 25 separations checked, 0 violations\n"
    assert asked == {("masks", 2): 15, "_ci_tests": 1}
    asked.clear()
    assert main(["sem-check", "--graph", str(DATA / "mixed6.g"), "--criterion", "3"]) == 0
    assert capsys.readouterr().out == "seed 0, tol 1e-07: 25 separations checked, 0 violations\n"
    assert asked == {("masks", 3): 15, "_ci_tests": 1}
    # markov-verify looks its generator up by the cli name at call time, once.
    for name in set(MARKOV_GENERATORS.values()):
        counting(name)
    for prop, name in MARKOV_GENERATORS.items():
        asked.clear()
        assert main(["markov-verify", "--graph", str(DATA / "amp-chain.g"),
                     "--property", prop]) == 0
        assert capsys.readouterr().out.startswith(f"{prop}: ")
        assert asked == {name: 1}, prop


@pytest.mark.parametrize("command", ["equiv-check", "sem-check"])
def test_singleton_sweep_refuses_more_nodes_than_its_cap(command, tmp_path, capsys):
    # One node over the cap is refused before the first query.
    g = graph_file(tmp_path, f"nodes {MAX_SWEEP_NODES + 1}\n")
    assert main([command, "--graph", g]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: n={MAX_SWEEP_NODES + 1} exceeds the singleton "
                            f"sweep cap of {MAX_SWEEP_NODES}\n")


def _line_clique_file(tmp_path, n):
    # Nodes 1, 2 and a line clique on 3..n, plus 1 - 3 and 2 -> n.  1 and 2
    # are separated given nothing, and criterion 1 must try every simple
    # path through the clique to say so: 1,958 stack pops at n = 9.
    lines = [f"line {a} {b}" for a, b in combinations(range(3, n + 1), 2)]
    return graph_file(tmp_path, "\n".join([f"nodes {n}", "line 1 3", f"arrow 2 {n}", *lines]))


@pytest.mark.parametrize("argv", [["sep", "--criterion", "1", "--x", "1", "--y", "2"],
                                  ["equiv-check"]])
def test_criterion_1_refuses_a_search_past_its_step_budget(argv, tmp_path, capsys, monkeypatch):
    # A budget under the clique query's pops; equiv-check asks that query
    # first and prints only at the end, so its refusal leaves stdout empty.
    monkeypatch.setattr(separation, "MAX_PATH_STEPS", 1000)
    g = _line_clique_file(tmp_path, 9)
    assert main([argv[0], "--graph", g, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: criterion 1 ran past its 1000-step budget\n"


def test_equiv_check_refuses_past_its_cap_before_the_dialect(tmp_path, capsys):
    # A graph over the cap is refused for its size even when it has a biarrow.
    g = graph_file(tmp_path, f"nodes {MAX_SWEEP_NODES + 1}\nbiarrow 1 2\n")
    assert main(["equiv-check", "--graph", g]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: n={MAX_SWEEP_NODES + 1} exceeds the singleton "
                            f"sweep cap of {MAX_SWEEP_NODES}\n")


def _violations(*groups):
    # VIOLATION lines of mixed6.g, one (x, y, z sets) group per pair.
    return "".join(f"VIOLATION {{{x}}} _||_ {{{y}}} | {{{z}}}\n"
                   for x, y, zs in groups for z in zs)


_BEFORE_B_F = _violations(("A", "E", ("", "B", "F", "B,F")), ("A", "F", ("", "B", "E", "B,E")),
                          ("B", "C", ("A", "A,E", "A,F", "A,E,F")),
                          ("B", "E", ("", "A", "A,C", "F", "A,F", "A,C,F")))


# The batch caps a sem-check test runs under: one pair per batch, batches
# that close mid-graph, and the default.  A test loops over them inside,
# so one test id covers every cap.
_CAPS = (1, 7, cli._BATCH_TESTS)


@pytest.mark.parametrize("copy, replaced, out, err", [
    (5, 3, _BEFORE_B_F + _violations(("B", "F", ("", "A", "A,C", "E", "A,E"))),
     "covariance submatrix for 2,6|[1, 3, 5] is singular"),
    (1, 4, _BEFORE_B_F + _violations(("B", "F", ("", "A", "A,C", "E", "A,E", "A,C,E"))),
     "covariance submatrix for 3,6|[1, 2, 4, 5] is not positive definite")])
def test_sem_check_reports_a_bad_submatrix_as_one_test_at_a_time(copy, replaced, out, err,
                                                                 capsys, monkeypatch):
    # Node `replaced` gets node `copy`'s row and column of sigma, so every
    # submatrix holding both is singular.  At --tol 0 every separation is a
    # VIOLATION: the lines up to the first bad submatrix print in order,
    # those of its own pair included, and its error names it, wherever the
    # batches of pairs close.
    real = cli.implied_covariance

    def rank_deficient(sem):
        sigma = real(sem).copy()
        sigma[:, replaced - 1] = sigma[:, copy - 1]
        sigma[replaced - 1, :] = sigma[copy - 1, :]
        return sigma

    monkeypatch.setattr(cli, "implied_covariance", rank_deficient)
    for cap in _CAPS:
        monkeypatch.setattr(cli, "_BATCH_TESTS", cap)
        assert main(["sem-check", "--graph", str(DATA / "mixed6.g"), "--tol", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == out, cap
        assert captured.err == f"error: {err}\n", cap


def test_sem_check_refusing_a_pair_follows_the_pairs_before_it(capsys, monkeypatch):
    # Criterion 1 answers a whole pair in one search, so a refusal at B, F
    # comes after the VIOLATION lines of the pairs before it and prints none
    # of its own, in whatever batch those pairs were collected.
    real = separation._path_connected

    def refuses_one(g, xm, ym, zm, rest=0):
        if (xm, ym) == (0b000010, 0b100000):
            raise AmpAdmgError("criterion 1 ran past its 1000-step budget")
        return real(g, xm, ym, zm, rest)

    monkeypatch.setattr(separation, "_path_connected", refuses_one)
    for cap in _CAPS:
        monkeypatch.setattr(cli, "_BATCH_TESTS", cap)
        assert main(["sem-check", "--graph", str(DATA / "mixed6.g"), "--tol", "0",
                     "--criterion", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == _BEFORE_B_F, cap
        assert captured.err == "error: criterion 1 ran past its 1000-step budget\n", cap


def test_sem_check_prints_the_same_under_every_criterion(tmp_path, capsys):
    # The four criteria separate the same z, so sem-check prints the same
    # bytes under each; at --tol 0 every separation is a VIOLATION line, which
    # pins the order of the z too.  Seeded graphs with n = 6..8.
    rng = random.Random(67)
    for n in (6, 6, 7, 7, 8, 8):
        g = graph_file(tmp_path, serialize(random_graph(rng, n)))
        seed = str(rng.randint(0, 1000))
        for tol in ([], ["--tol", "0"]):
            runs = {(main(["sem-check", "--graph", g, "--seed", seed, "--criterion", c, *tol]),
                     capsys.readouterr()) for c in "1234"}
            assert len(runs) == 1, (n, seed, tol)
            (code, captured), = runs
            assert captured.err == ""
            assert ("VIOLATION" in captured.out) == (code == 1) == bool(tol), (n, seed, tol)


ALTERNATIVE_FILES = sorted(p.name for p in DATA.glob("*.g")
                           if parse(p.read_text()).dialect is Dialect.ALTERNATIVE)


@pytest.mark.parametrize("name", ALTERNATIVE_FILES)
def test_sem_check_prints_the_same_under_every_criterion_on_the_data_files(name, capsys):
    # The sweep decodes each criterion's lanes into the z it tests; at --tol 0
    # every separation is a VIOLATION line, in the order of its z.
    for tol in ([], ["--tol", "0"]):
        runs = {(main(["sem-check", "--graph", str(DATA / name), "--criterion", c, *tol]),
                 capsys.readouterr()) for c in "1234"}
        assert len(runs) == 1, (name, tol)
        (code, captured), = runs
        assert captured.err == ""
        assert ("VIOLATION" in captured.out) == (code == 1), (name, tol)


@pytest.mark.parametrize("cap", _CAPS[:2])
@pytest.mark.parametrize("name", ALTERNATIVE_FILES)
def test_sem_check_prints_the_same_whatever_its_batch_cap(name, cap, capsys, monkeypatch):
    # Batches close at the first pair boundary at or past the cap, so a cap
    # of 1 asks the kernel once per pair and 7 closes batches mid-graph;
    # neither may change a byte or an exit code.
    def runs():
        out = []
        for tol in ([], ["--tol", "0"]):
            code = main(["sem-check", "--graph", str(DATA / name), *tol])
            out.append((code, capsys.readouterr()))
        return out

    default = runs()
    monkeypatch.setattr(cli, "_BATCH_TESTS", cap)
    assert runs() == default


def test_sem_check_batches_hold_at_most_the_cap_plus_one_pair(tmp_path, capsys, monkeypatch):
    # A batch closes at the first pair boundary at or past the cap, so no
    # kernel call holds more than the cap plus one pair's 2^(n-2) sets.  A
    # sparse seeded DAG, whose many separations fill several batches.
    n, rng = 10, random.Random(43)
    arrows = {(a, b) for a, b in combinations(range(1, n + 1), 2) if rng.random() < 0.2}
    g = graph_file(tmp_path, serialize(MixedGraph(n, arrows)))
    sizes = []
    real = cli._ci_tests

    def sized(sigma, tests, tol):
        sizes.append(len(tests))
        return real(sigma, tests, tol)

    monkeypatch.setattr(cli, "_ci_tests", sized)
    assert main(["sem-check", "--graph", g, "--tol", "0"]) == 1
    checked = int(re.search(r"(\d+) separations checked", capsys.readouterr().out)[1])
    assert sum(sizes) == checked and len(sizes) > 2
    assert max(sizes) <= cli._BATCH_TESTS + (1 << n - 2)
    assert all(size >= cli._BATCH_TESTS for size in sizes[:-1])


# -- magnify / intervene -----------------------------------------------------


def test_magnify_output_parses_back(capsys):
    assert main(["magnify", "--graph", str(DATA / "double-edge.g")]) == 0
    out = capsys.readouterr().out
    g = parse((DATA / "double-edge.g").read_text())
    assert parse(out) == magnify(g)
    assert out.startswith("nodes A B D eps_A eps_B eps_D\n")


def test_intervene_output_parses_back(capsys):
    assert main(["intervene", "--graph", str(DATA / "ident-alt.g"),
                 "--x", "A"]) == 0
    out = capsys.readouterr().out
    assert out == "nodes A B C\narrow A B\nline B C\n"
    g = parse((DATA / "ident-alt.g").read_text())
    assert parse(out) == intervene(g, {1})


def test_magnify_label_clash_is_usage_error(tmp_path, capsys):
    # Node A's noise label is the second node's label; the refusal names it.
    g = graph_file(tmp_path, "nodes A eps_A\n")
    assert main(["magnify", "--graph", g]) == 2
    assert capsys.readouterr() == ("", "error: noise label 'eps_A' clashes with a node label\n")


def test_magnify_refuses_more_nodes_than_its_cap(tmp_path, capsys):
    # One node over the cap is refused before any mask is built.
    g = graph_file(tmp_path, "nodes 10001\n")
    assert main(["magnify", "--graph", g]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "10000" in err


# -- rule --------------------------------------------------------------------


def test_rule_script_all_applicable(capsys):
    code = main(["rule", "--graph", str(DATA / "ident-alt.g"),
                 "--script", str(DATA / "ident-deriv.txt")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "rule 3 x= y=C z=A w=  # applicable",
        "rule 2 x= y=B z=A w=C  # applicable",
    ]


def test_rule_script_output_is_reparseable(capsys):
    main(["rule", "--graph", str(DATA / "ident-alt.g"),
          "--script", str(DATA / "ident-deriv.txt")])
    out = capsys.readouterr().out
    g = parse((DATA / "ident-alt.g").read_text())
    echoed = parse_derivation(out, g)
    original = parse_derivation((DATA / "ident-deriv.txt").read_text(), g)
    assert echoed == original


def test_rule_script_failure_exits_1(capsys):
    code = main(["rule", "--graph", str(DATA / "ident-orig.g"),
                 "--script", str(DATA / "ident-deriv.txt")])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("# applicable")
    assert lines[1].endswith("# NOT applicable")


def test_rule_single_step(capsys):
    code = main(["rule", "--graph", str(DATA / "ident-alt.g"),
                 "--rule", "3", "--y", "C", "--z", "A"])
    assert code == 0
    assert capsys.readouterr().out == "applicable\n"
    code = main(["rule", "--graph", str(DATA / "ident-orig.g"),
                 "--rule", "2", "--y", "B", "--z", "A", "--w", "C"])
    assert code == 1
    assert capsys.readouterr().out == "not applicable\n"


def test_rule_answers_when_a_label_looks_like_an_indicator(tmp_path, capsys):
    g = graph_file(tmp_path, "nodes A F_A B\narrow A B\n")
    code = main(["rule", "--graph", g, "--rule", "2", "--y", "B", "--z", "A"])
    assert code == 0
    assert capsys.readouterr().out == "applicable\n"


def test_rule_overlap_names_the_lowest_shared_node(tmp_path, capsys):
    g = graph_file(tmp_path, "nodes 8\narrow 1 2\nline 2 8\n")
    code = main(["rule", "--graph", g, "--rule", "2",
                 "--x", "1,8", "--y", "1,8", "--z", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: node 1 appears in two argument sets\n"


def test_rule_single_step_requires_y(capsys):
    code = main(["rule", "--graph", str(DATA / "ident-alt.g"), "--rule", "3"])
    assert code == 2
    assert "--y is required" in capsys.readouterr().err


# -- markov-verify -----------------------------------------------------------


def test_markov_verify_ordered_properties(capsys):
    code = main(["markov-verify", "--graph", str(DATA / "mixed6.g"),
                 "--property", "ordered-local"])
    assert code == 0
    assert capsys.readouterr().out == "ordered-local: 10 statements, 0 failures\n"
    code = main(["markov-verify", "--graph", str(DATA / "mixed6.g"),
                 "--property", "ordered-pairwise"])
    assert code == 0
    assert capsys.readouterr().out == "ordered-pairwise: 1 statements, 0 failures\n"


def test_markov_verify_gaussian_oracle(capsys):
    code = main(["markov-verify", "--graph", str(DATA / "mixed6.g"),
                 "--property", "ordered-local", "--oracle", "gaussian",
                 "--seed", "7"])
    assert code == 0
    assert capsys.readouterr().out.endswith("0 failures\n")


def test_markov_verify_amp_properties(tmp_path, capsys):
    g = graph_file(tmp_path, "nodes A B C D\narrow A C\narrow B C\nline C D\n")
    for prop, count in (("amp-block", 2), ("amp-local", 2), ("amp-pairwise", 3)):
        code = main(["markov-verify", "--graph", g, "--property", prop])
        assert code == 0
        assert capsys.readouterr().out == f"{prop}: {count} statements, 0 failures\n"


def test_markov_verify_amp_rejects_non_chain_graph(capsys):
    code = main(["markov-verify", "--graph", str(DATA / "ident-alt.g"),
                 "--property", "amp-local"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_markov_verify_refuses_more_nodes_than_its_cap(tmp_path, capsys, monkeypatch):
    # Refused before any generator runs.
    def no_generator(*args):
        raise AssertionError("a generator ran")

    for name in ("amp_statements", "ordered_local_statements", "ordered_pairwise_statements"):
        monkeypatch.setattr(cli, name, no_generator)
    g = graph_file(tmp_path, f"nodes {MAX_SWEEP_NODES + 1}\n")
    for prop in ("ordered-local", "ordered-pairwise", "amp-block", "amp-local", "amp-pairwise"):
        assert main(["markov-verify", "--graph", g, "--property", prop]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: n={MAX_SWEEP_NODES + 1} exceeds the markov-verify "
                                f"cap of {MAX_SWEEP_NODES}\n")


def test_amp_block_refuses_a_long_line_component(tmp_path, capsys, monkeypatch):
    # Refused before the block-recursive walk starts; the other chain-graph
    # properties answer the same graph.
    def no_walk(*args):
        raise AssertionError("the block-recursive walk ran")

    monkeypatch.setattr(markov, "_block_recursive", no_walk)
    k = MAX_BLOCK_COMPONENT + 1
    g = graph_file(tmp_path, f"nodes {k}\n" + "".join(f"line {i} {i + 1}\n" for i in range(1, k)))
    assert main(["markov-verify", "--graph", g, "--property", "amp-block"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: a line component of {k} nodes exceeds the "
                            f"block-recursive cap of {MAX_BLOCK_COMPONENT}\n")
    for prop in ("amp-local", "amp-pairwise"):
        assert main(["markov-verify", "--graph", g, "--property", prop]) == 0
        assert capsys.readouterr().out.endswith(" statements, 0 failures\n")


def test_negative_seed_is_usage_error(capsys):
    for argv in (["sem-check", "--graph", str(DATA / "mixed6.g")],
                 ["markov-verify", "--graph", str(DATA / "mixed6.g"),
                  "--property", "ordered-pairwise", "--oracle", "gaussian"]):
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be non-negative" in captured.err


def test_negative_penalty_is_usage_error(capsys):
    for command in ("learn", "export-asp"):
        for kind in ("line", "arrow", "biarrow"):
            assert main([command, "--constraints", str(DATA / "indeps-obs.txt"),
                         f"--{kind}-penalty", "-1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{kind} penalty must be non-negative" in captured.err


def test_negative_max_n_is_usage_error(capsys):
    # A negative cap would refuse every problem as too large.
    assert main(["learn", "--constraints", str(DATA / "indeps-obs.txt"),
                 "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert "max-n must be non-negative and finite, got -1" in captured.err


def test_non_integer_seed_is_usage_error(capsys):
    assert main(["sem-check", "--graph", str(DATA / "mixed6.g"), "--seed", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid seed 'x'" in captured.err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tolerance_that_is_negative_or_not_finite_is_usage_error(tol, capsys):
    # Such a tolerance would report every separation as a violation (nan,
    # -1) or pass every one (inf).
    for argv in (["sem-check", "--graph", str(DATA / "mixed6.g")],
                 ["markov-verify", "--graph", str(DATA / "mixed6.g"),
                  "--property", "ordered-pairwise", "--oracle", "gaussian"]):
        assert main(argv + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage:")
        assert "tolerance must be non-negative and finite" in captured.err


# -- sem-check ---------------------------------------------------------------


def test_sem_check_clean_graph(capsys):
    code = main(["sem-check", "--graph", str(DATA / "mixed6.g")])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "seed 0, tol 1e-07: 25 separations checked, 0 violations\n"


def test_sem_check_seed_changes_model_not_verdict(capsys):
    for seed in ("1", "2"):
        code = main(["sem-check", "--graph", str(DATA / "mixed6.g"),
                     "--seed", seed])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"seed {seed}, tol 1e-07:")


# -- learn / export-asp ------------------------------------------------------


def test_learn_observational_golden(capsys):
    code = main(["learn", "--constraints", str(DATA / "indeps-obs.txt")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "optimal score: 3"
    assert len(lines) == 1 + 37
    assert "line(1,2) line(2,3) arrow(1,2)" in lines[1:]


def test_learn_full_golden(capsys):
    code = main(["learn", "--constraints", str(DATA / "indeps-full.txt")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "optimal score: 3"
    assert len(lines) == 1 + 18


def test_learn_both_dialects_golden(capsys):
    code = main(["learn", "--constraints", str(DATA / "indeps-full.txt"),
                 "--dialect", "both"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "optimal score: 3"
    assert len(lines) == 1 + 34
    assert sum("biarrow" in ln for ln in lines[1:]) == 16


def test_learn_json_format(capsys):
    code = main(["learn", "--constraints", str(DATA / "indeps-obs.txt"),
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal_score"] == 3
    assert len(payload["models"]) == 37
    assert "line(1,2) line(2,3) arrow(1,2)" in payload["models"]


def test_learn_infeasible_exits_1(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    cfile.write_text("nodes 2\ndep 1 2 {} 0 1\n"
                     "forbid line 1 2\nforbid arrow 1 2\nforbid arrow 2 1\n")
    code = main(["learn", "--constraints", str(cfile)])
    assert code == 1
    assert capsys.readouterr().out == "no feasible model\n"


def test_learn_bad_constraint_file_is_usage_error(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    cfile.write_text("nodes 3\ndep 1 2\n")
    code = main(["learn", "--constraints", str(cfile)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("forbid arrow 1", "line 2: forbid needs an edge kind and two nodes"),
    ("forbid arrow 1 1", "line 2: prior edge endpoints must differ"),
    ("require line 3 3", "line 2: prior edge endpoints must differ"),
    ("dep 1 1 {} 0 1", "line 2: constraint endpoints must differ"),
    ("order 1 2 3\norder 1 2 3", "line 3: duplicate order line"),
    ("indep 1 2 {} 7 1", "line 2: regime 7 out of range 0..3"),
    ("dep 1 2 {} -1 1", "line 2: regime -1 out of range 0..3"),
    ("order 1 1 2", "line 2: ordering must list each node exactly once"),
    ("order 1 2", "line 2: ordering must list each node exactly once"),
])
def test_malformed_constraint_line_is_usage_error(line, message, tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    cfile.write_text(f"nodes 3\n{line}\n")
    assert main(["learn", "--constraints", str(cfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_negative_node_count_is_usage_error(tmp_path, capsys):
    cfile = tmp_path / "c.txt"
    cfile.write_text("nodes -1\n")
    for command in ("learn", "export-asp"):
        assert main([command, "--constraints", str(cfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: node count")


# SHA-256 of the stdout of `learn --constraints tests/data/<file> <flags>` as
# the exhaustive search printed it; the bound-ordered search must not change
# one byte.
LEARN_STDOUT_SHA256 = (
    ("indeps-obs.txt", ["--dialect", "alt"],
     "66ae40a9f80e47d737a684a226f3130aa090370100db7fdee50ff474ac762767"),
    ("indeps-obs.txt", ["--dialect", "alt", "--format", "json"],
     "8422793309591891ec92f222b260345d789d772ab6851d404f074102fff7abfd"),
    ("indeps-obs.txt", ["--dialect", "both"],
     "61d38697791896835b090cc7031420d3fe57636ef181f108eadafc981c53065d"),
    ("indeps-full.txt", ["--dialect", "orig"],
     "4e3026874fb81d0e485141a361d724379daac1351656c5e30b79b187168dda62"),
    ("indeps-full.txt", ["--dialect", "both", "--format", "json"],
     "c669e47a7cefa1bebf1a7ddeda882354260dc2600d4bdc41b49ae59124655752"),
    ("indeps-obs.txt", ["--line-penalty", "0", "--arrow-penalty", "0",
                        "--biarrow-penalty", "0", "--dialect", "both"],
     "3a851681cdf7970fbf924ee77df6ef1340d93e98c44b358d42694926bf8aae54"),
)


@pytest.mark.parametrize("name,flags,digest", LEARN_STDOUT_SHA256)
def test_learn_stdout_is_pinned(name, flags, digest, capsys):
    assert main(["learn", "--constraints", str(DATA / name), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_learn_respects_penalty_flags(capsys):
    # Pricing lines up leaves only the six pure-arrow optima.
    main(["learn", "--constraints", str(DATA / "indeps-obs.txt"),
          "--line-penalty", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal_score"] == 3
    assert len(payload["models"]) == 6
    assert all("line(" not in m for m in payload["models"])


def test_export_asp_matches_library(capsys):
    assert main(["export-asp", "--constraints",
                 str(DATA / "indeps-obs.txt")]) == 0
    out = capsys.readouterr().out
    p = parse_constraints((DATA / "indeps-obs.txt").read_text())
    assert out == export_asp(p)
    assert "nodes(3)." in out
    assert "dep(1,2,0,0,1)." in out


def test_export_asp_refuses_unprintable_set_indices(tmp_path, capsys):
    # 2^20000 - 1 has more digits than str() converts.
    assert main(["export-asp", "--constraints",
                 graph_file(tmp_path, "nodes 20000\n")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=20000 is too large to print the set indices\n"


def test_constraint_file_node_count_is_capped(tmp_path, capsys):
    # Refused while parsing, before any set index is computed: this must
    # return at once.
    c = graph_file(tmp_path, "nodes 1000000000000\n")
    for command in ("export-asp", "learn"):
        assert main([command, "--constraints", c]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 1: 1000000000000 nodes exceed "
                                "the cap of 100000\n")


def test_overlong_rule_number_is_usage_error(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text(f"rule {'1' * 5000} x=1 y=2 z= w=\n")
    assert main(["rule", "--graph", str(DATA / "mixed6.g"),
                 "--script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: integer of 5000 digits is too long\n"


def test_graph_file_node_count_is_capped(tmp_path, capsys):
    # Refused before anything is allocated: this must return at once.
    g = graph_file(tmp_path, "# huge\nnodes 1000000000000\n")
    assert main(["sep", "--graph", g, "--x", "1", "--y", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 2: 1000000000000 nodes exceed "
                            "the cap of 100000\n")


def test_export_asp_dialect_flag(capsys):
    main(["export-asp", "--constraints", str(DATA / "indeps-obs.txt"),
          "--dialect", "both"])
    out = capsys.readouterr().out
    assert "{ biarrow(X,Y,0) }" in out
    assert ":- biarrow(X,Y,0), line(Z,W,0)." in out


# SHA-256 of the stdout, and the exit code, of the parsing-heavy commands over
# tests/data ("name"), computed at the commit before node tokens got one shared
# reader; that reader must not change one byte.
STDOUT_SHA256 = (
    (["sep", "--graph", "@mixed6.g", "--x", "1", "--y", "5", "--z", "2,6"], 0,
     "f286e192b325cf9f7deedd2bdda9b080fdc8d66feb748ac12e18c744e307d6b2"),
    (["sep", "--graph", "@mixed6.g", "--x", "A,B", "--y", "F", "--z", "D"], 1,
     "77ff73618d165c9ca1d50b611d88c747261b55161020c066fe445f3bd4083832"),
    (["sep", "--graph", "@double-edge.g", "--x", "A", "--y", "D", "--z", "B",
      "--criterion", "3", "--format", "json"], 1,
     "d4c923bc7ae78f73de79885f44d4cab2b618fe7a2e58245ed63c2b544a8fa6d3"),
    (["intervene", "--graph", "@mixed6.g", "--x", "2,C"], 0,
     "2d8e6666cc54a6539d259375405ccd82e4b4b3f0d999abdbc4aeed3949c3484d"),
    (["intervene", "--graph", "@ident-orig.g", "--x", "B"], 0,
     "8f8cb482ed3646afa47691e177845c6e10c01bbd7eb66520f435fecb22ec111b"),
    (["magnify", "--graph", "@mixed6.g"], 0,
     "79df37de1f71897b49e2cd2573aff869e0b11ddc4809befcfdeeef6e475f2a0c"),
    (["rule", "--graph", "@ident-alt.g", "--script", "@ident-deriv.txt"], 0,
     "5f0405fdc5ef11c45d1f77319af5d29121910bde1284a29baa92070ad9e5dece"),
    (["rule", "--graph", "@ident-orig.g", "--script", "@ident-deriv.txt"], 1,
     "15d76eb549f7239cda0ac63c625e040194b15e8feff7602431fc0937c14a0bf5"),
    (["export-asp", "--constraints", "@indeps-full.txt", "--dialect", "both"], 0,
     "e94175a53f4965ff12d2d494405599cc03be98335462696895084e5bc05dca6d"),
    (["export-asp", "--constraints", "@indeps-obs.txt"], 0,
     "ec3a8046372a36670ac74c90ee21159cd5837d81455cc1ef5da0dcc2e2e596ed"),
    (["equiv-check", "--graph", "@mixed6.g"], 0,
     "c1f296db1d49c341b4b876bb1203eaf0658628e37a58d023fa07c659b6cd86f5"),
    (["equiv-check", "--graph", "@chain-lines.g"], 0,
     "b1e9cc6f98ca293137273deb2eeafb5281b757ccc804ae16a43256232f3f01e3"),
    # Computed before criteria 3 and 4 memoised their augmented graphs.
    (["sem-check", "--graph", "@mixed6.g", "--criterion", "3"], 0,
     "a2d7fb5c73889965b62b40da19e424b895011da5953715ff02bc9ddd29a1ce3f"),
    (["sem-check", "--graph", "@mixed6.g", "--criterion", "4"], 0,
     "a2d7fb5c73889965b62b40da19e424b895011da5953715ff02bc9ddd29a1ce3f"),
    (["markov-verify", "--graph", "@mixed6.g", "--property", "ordered-pairwise",
      "--criterion", "3"], 0,
     "97f43060f64bd9084fdef62676c36d283f2fcc88d1e7570b90e5d643259c027f"),
    (["markov-verify", "--graph", "@mixed6.g", "--property", "ordered-local",
      "--criterion", "4"], 0,
     "159e2b0f0f0ee9e682dc5213f0aec03519e613321d8eb18bfb30a1205f4f3c20"),
    (["equiv-check", "--graph", "@double-edge.g"], 0,
     "76384c0fb30620cc7367aa6cc6fcf5387bb97e4d2a1d470c72ee343efec0c055"),
    (["equiv-check", "--graph", "@ident-alt.g"], 0,
     "76384c0fb30620cc7367aa6cc6fcf5387bb97e4d2a1d470c72ee343efec0c055"),
    # Computed before graphs stored only their adjacency masks; these go
    # through is_amp_cg and connectivity_components.  chain-lines.g has a
    # semidirected cycle (A -> B -> C - A), so it is refused with no output.
    (["markov-verify", "--graph", "@chain-lines.g", "--property", "amp-block"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["markov-verify", "--graph", "@chain-lines.g", "--property", "amp-local"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["markov-verify", "--graph", "@chain-lines.g", "--property", "amp-pairwise"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["markov-verify", "--graph", "@amp-chain.g", "--property", "amp-block"], 0,
     "347835e3600ae7d4400d4f1610d04233f25d42eacc416b777a11a9234e2d59f9"),
    (["markov-verify", "--graph", "@amp-chain.g", "--property", "amp-local"], 0,
     "3c0d74adcab9519b23cd7c7aa9f87ad2ae2ec5669cd9ce7ca90d1c77eb8e9c20"),
    (["markov-verify", "--graph", "@amp-chain.g", "--property", "amp-pairwise"], 0,
     "7b643ad1c8a0a93d470d6531e5af5b88440cad69cc66107d0b9ecf387ac9f694"),
    # Computed before criterion 2 became a frontier fixpoint over node
    # masks; these run it at the default criterion.
    (["sem-check", "--graph", "@mixed6.g"], 0,
     "a2d7fb5c73889965b62b40da19e424b895011da5953715ff02bc9ddd29a1ce3f"),
    (["markov-verify", "--graph", "@mixed6.g", "--property", "ordered-local"], 0,
     "159e2b0f0f0ee9e682dc5213f0aec03519e613321d8eb18bfb30a1205f4f3c20"),
    # Computed before queries and statements were stored as their masks.
    # At --tol 0 every test fails, so these print every statement a
    # generator emits, in order, not just the count line.
    (["sem-check", "--graph", "@mixed6.g", "--tol", "0"], 1,
     "f3342ec0c88028c5968bb738a75c043887061bdc61dce4ffd5e28aec6b476e9a"),
    (["markov-verify", "--graph", "@mixed6.g", "--property", "ordered-local",
      "--oracle", "gaussian", "--tol", "0"], 1,
     "69a06387768dc1a850554c2ddcfc21fd38e243d3de79653cbec1829c554d6be8"),
    (["markov-verify", "--graph", "@mixed6.g", "--property", "ordered-pairwise",
      "--oracle", "gaussian", "--tol", "0"], 1,
     "5f6946cfb3f36b8ac4e2ef36f5223cfe8ff654572d52fb8de0a465e6a38ab6d4"),
    (["markov-verify", "--graph", "@amp-chain.g", "--property", "amp-block",
      "--oracle", "gaussian", "--tol", "0"], 1,
     "6cbdb0ed89d6014db97cee6dac605db71c528fa1ee5217ccfc56d376d6a1dfb8"),
    (["markov-verify", "--graph", "@amp-chain.g", "--property", "amp-local",
      "--oracle", "gaussian", "--tol", "0"], 1,
     "2d1d7589ccadb751abbc5d5b554e2d39aef9db527fe2b8be3d36cf9bf928a67c"),
    (["markov-verify", "--graph", "@amp-chain.g", "--property", "amp-pairwise",
      "--oracle", "gaussian", "--tol", "0"], 1,
     "5d2d5c756cb13cdd2ec784503be9dee36dc2594a433544a229bc1061e41b9bf5"),
)


@pytest.mark.parametrize("argv,code,digest", STDOUT_SHA256)
def test_stdout_is_pinned(argv, code, digest, capsys):
    assert main([str(DATA / a[1:]) if a[0] == "@" else a for a in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- graphs with biarrows ------------------------------------------------------
#
# Criterion 2, intervene and the rule premises are defined for biarrows; every
# command defined only with lines refuses them with exit 2 and an error line,
# never with a FAIL line or a crash.

BIARROW3 = "nodes 3\narrow 1 2\nbiarrow 2 3\n"
_ANSWERED = (["sep", "--criterion", "2", "--x", "1", "--y", "3"],
             ["intervene", "--x", "2"],
             ["rule", "--rule", "1", "--x", "1", "--y", "3", "--z", "2"])
_REFUSED = ([["sep", "--criterion", c, "--x", "1", "--y", "3"] for c in "134"]
            + [["equiv-check"], ["magnify"], ["sem-check"]]
            + [["markov-verify", "--property", p, "--oracle", o]
               for p in ("ordered-local", "ordered-pairwise", "amp-block", "amp-local",
                         "amp-pairwise")
               for o in ("graph", "gaussian")])


@pytest.mark.parametrize("argv,answered", [
    pytest.param(argv, answered, id="-".join(a.lstrip("-") for a in argv))
    for argvs, answered in ((_ANSWERED, True), (_REFUSED, False)) for argv in argvs])
def test_biarrow_graph_is_answered_or_refused(argv, answered, tmp_path, capsys):
    code = main(argv + ["--graph", graph_file(tmp_path, BIARROW3)])
    out, err = capsys.readouterr()
    if answered:
        assert code in (0, 1) and out and "FAIL" not in out and not err, (code, out, err)
    else:
        assert code == 2 and not out and err.startswith("error: "), (code, out, err)


# -- text input ----------------------------------------------------------------
#
# Graph files, constraint files, derivation scripts and command-line node
# lists share one line reader and one node-token rule: an optional single
# "-" followed by decimal digits is an index, anything else a label.  "²"
# (a digit that is not decimal) and "--2" once passed a looser test and
# then crashed int(), as did an integer past int()'s digit limit.

ODD_TOKENS = ("²", "--2", pytest.param("1" * 5000, id="5000-digits"))


def _bad_inputs(tok):
    graph = "nodes A B C\narrow A B\n"
    constraints = "nodes 3\ndep 1 2 {} 0 1\n"
    rule = ["rule", "--graph", str(DATA / "ident-alt.g")]
    return (
        ("graph edge", ["magnify", "--graph", "@g"], f"nodes 3\narrow 1 {tok}\n"),
        ("graph nodes", ["magnify", "--graph", "@g"], f"nodes {tok}\n"),
        ("graph label list", ["magnify", "--graph", "@g"], f"nodes A {tok}\n"),
        ("cli flag", ["sep", "--graph", "@g", f"--x={tok}", "--y", "B"], graph),
        ("script set", rule + ["--script", "@g"], f"rule 3 x={tok} y=C z=A w=\n"),
        ("constraint x", ["learn", "--constraints", "@g"], f"nodes 3\ndep 1 {tok} {{}} 0 1\n"),
        ("constraint set", ["learn", "--constraints", "@g"], f"nodes 3\ndep 1 2 {{{tok}}} 0 1\n"),
        ("constraint order", ["learn", "--constraints", "@g"], constraints + f"order 1 2 {tok}\n"),
        ("constraint prior", ["learn", "--constraints", "@g"], constraints + f"forbid line 1 {tok}\n"),
        ("constraint nodes", ["export-asp", "--constraints", "@g"], f"nodes {tok}\n"),
    )


@pytest.mark.parametrize("tok", ODD_TOKENS)
def test_odd_number_tokens_are_usage_errors(tok, tmp_path, capsys):
    for what, argv, text in _bad_inputs(tok):
        path = graph_file(tmp_path, text)
        code = main([path if a == "@g" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2, what
        assert captured.err.startswith("error:"), what
        assert captured.out == "", what


def test_out_of_range_index_names_its_line(tmp_path, capsys):
    cases = (
        (["magnify", "--graph"], "nodes 3\narrow 1 2\n\nline 2 4\n", "line 4: node 4"),
        (["learn", "--constraints"], "nodes 3\ndep 1 2 {} 0 1\nindep 1 2 {0} 0 1\n",
         "line 3: node 0"),
        (["learn", "--constraints"], "nodes 3\nrequire arrow 1 -2\n", "line 2: node -2"),
    )
    for argv, text, message in cases:
        assert main(argv + [graph_file(tmp_path, text)]) == 2
        assert message in capsys.readouterr().err
    script = tmp_path / "s.txt"
    script.write_text("rule 3 x= y=C z=A w=\n# applies?\nrule 1 x= y=3 z=1 w=9\n")
    assert main(["rule", "--graph", str(DATA / "ident-alt.g"),
                 "--script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: node 9 out of range 1..3\n"


def test_script_skips_empty_list_items(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("rule 3 x= y=,C, z=A w=\nrule 2 x= y=B z=A,,A w=,C\n")
    assert main(["rule", "--graph", str(DATA / "ident-alt.g"),
                 "--script", str(script)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "rule 3 x= y=C z=A w=  # applicable",
        "rule 2 x= y=B z=A w=C  # applicable",
    ]


def test_empty_y_is_usage_error(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("rule 1 x= y= z=A w=\n")
    for argv in (["--script", str(script)], ["--rule", "1", "--y", ",", "--z", "A"]):
        assert main(["rule", "--graph", str(DATA / "ident-alt.g"), *argv]) == 2
        assert capsys.readouterr().err == "error: y must be non-empty\n"


def test_a_script_step_with_overlapping_sets_or_empty_y_prints_nothing(tmp_path, capsys):
    # The steps are checked before any line is written, so a refused later
    # step leaves stdout empty.
    script = tmp_path / "s.txt"
    for step, message in (("rule 2 x=A y=B z=C w=B", "node 2 appears in two argument sets"),
                          ("rule 1 x=A,C y=B z=A w=", "node 1 appears in two argument sets"),
                          ("rule 3 x=A y= z=C w=", "y must be non-empty")):
        script.write_text(f"rule 3 x= y=C z=A w=\n{step}\n")
        assert main(["rule", "--graph", str(DATA / "ident-alt.g"),
                     "--script", str(script)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


FUZZ_TOKENS = st.sampled_from(
    ["1", "2", "3", "0", "-1", "-", "--2", "²", "١", "A", "B", "C", "Q", "", ","])
FUZZ_LISTS = st.lists(FUZZ_TOKENS, max_size=4).map(",".join)


@st.composite
def text_inputs(draw):
    """A command line, the text of the file "@f" it reads (or None) and the
    library reader of that text."""
    tok, lst = draw(FUZZ_TOKENS), draw(FUZZ_LISTS)
    kind = draw(st.sampled_from(("graph", "constraints", "script", "flags")))
    if kind == "graph":
        head = draw(st.sampled_from(("nodes 3", "nodes A B C", f"nodes {tok}",
                                     f"nodes A {tok}")))
        edges = draw(st.lists(st.tuples(
            st.sampled_from(("arrow", "line", "biarrow")), FUZZ_TOKENS, FUZZ_TOKENS),
            max_size=3))
        text = "\n".join([head] + [" ".join(e) for e in edges])
        return ["magnify", "--graph", "@f"], text, parse
    if kind == "constraints":
        lines = draw(st.lists(st.sampled_from((
            f"dep 1 {tok} {{}} 0 1", f"indep 1 2 {{{lst}}} 0 1", f"dep 2 3 {{}} {tok} 1",
            f"order {lst.replace(',', ' ')}", f"forbid line {tok} 1",
            f"require arrow 1 {tok}", "order 3 2 1")), max_size=3))
        nodes = draw(st.sampled_from(("3", "2", tok)))
        text = "\n".join([f"nodes {nodes}"] + lines)
        return ["export-asp", "--constraints", "@f"], text, parse_constraints
    if kind == "script":
        sets = draw(st.lists(FUZZ_LISTS, min_size=4, max_size=4))
        rule = draw(st.sampled_from("123"))
        text = f"rule {rule} x={sets[0]} y={sets[1]} z={sets[2]} w={sets[3]}\n"
        graph = DATA / "ident-alt.g"
        return ["rule", "--graph", str(graph), "--script", "@f"], text, \
            partial(parse_derivation, g=parse(graph.read_text()))
    flags = draw(st.lists(FUZZ_LISTS, min_size=3, max_size=3))
    command = draw(st.sampled_from((
        ["sep", "--x", flags[0], "--y", flags[1], "--z", flags[2]],
        ["intervene", "--x", flags[0]],
        ["rule", "--rule", "2", "--y", flags[0], "--z", flags[1], "--w", flags[2]])))
    graph = draw(st.sampled_from(("mixed6.g", "chain-lines.g")))
    return [command[0], "--graph", str(DATA / graph), *command[1:]], None, None


@settings(max_examples=300, deadline=None)
@given(case=text_inputs())
def test_any_text_input_is_answered_or_rejected(case, tmp_path_factory):
    argv, text, reader = case
    if text is not None:
        try:
            reader(text)
        except AmpAdmgError:
            pass
        path = tmp_path_factory.mktemp("fuzz") / "f"
        path.write_text(text)
        argv = [str(path) if a == "@f" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()


# -- determinism -------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys):
    argvs = (
        ["learn", "--constraints", str(DATA / "indeps-obs.txt")],
        ["export-asp", "--constraints", str(DATA / "indeps-full.txt")],
        ["magnify", "--graph", str(DATA / "mixed6.g")],
        ["sem-check", "--graph", str(DATA / "double-edge.g"), "--seed", "3"],
    )
    for argv in argvs:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


# -- the README ----------------------------------------------------------------


def _readme_examples():
    # The "$ ampadmg ..." lines of the sh block under "Command line" in
    # README.md, each with the output lines shown under it.
    text = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    examples = []
    for line in text.split("```sh\n", 1)[1].split("\n```", 1)[0].splitlines():
        if line.startswith("$ ampadmg "):
            examples.append((line.removeprefix("$ ampadmg "), []))
        elif line and not line.startswith("#"):
            examples[-1][1].append(line)
    return examples


def test_readme_command_examples_print_what_they_show(capsys, monkeypatch):
    # A shown line is the printed line, or it followed by whitespace and a
    # "# ..." note; "# exit code N" is checked against the return code.  A
    # "..." line ends the comparison; otherwise every printed line is shown.
    # A command that shows nothing or redirects its output must exit 0 or 1.
    monkeypatch.chdir(ROOT)
    examples = _readme_examples()
    assert examples
    for command, shown in examples:
        argv = shlex.split(command)
        if ">" in argv:
            argv = argv[:argv.index(">")]
        code = main(argv)
        printed = capsys.readouterr().out.splitlines()
        assert code in (0, 1), command
        for i, line in enumerate(shown):
            if line.split("#")[0].strip() == "...":
                break
            assert i < len(printed), (command, line)
            note = line.removeprefix(printed[i])
            assert line.startswith(printed[i]) and (
                not note or re.fullmatch(r"\s+#.*", note)), (command, line, printed[i])
            if m := re.fullmatch(r"\s+# exit code (\d+)", note):
                assert code == int(m.group(1)), command
        else:
            assert not shown or len(printed) == len(shown), command


def test_readme_library_section_names_and_prints_what_it_shows():
    # Every backticked name of the "Highlights" paragraph is exported, and
    # each commented line of the Python example evaluates to what its
    # comment shows: the value's repr, or "attr value" pairs read off it.
    text = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    highlights = text.split("Highlights beyond the CLI surface:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", highlights)
    assert names and [name for name in names if not hasattr(ampadmg, name)] == []
    scope, shown_lines = {}, 0
    for line in text.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines():
        code, _, shown = line.partition("#")
        if not shown:
            exec(code, scope)
            continue
        value, shown_lines = eval(code, scope), shown_lines + 1
        pairs = re.findall(r"(\w+) (\{[^}]*\})", shown)
        if not pairs:
            assert repr(value) == shown.strip(), line
        for attr, literal in pairs:
            assert getattr(value, attr) == ast.literal_eval(literal), line
    assert shown_lines == 2
