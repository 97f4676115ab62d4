"""Command-line driver: exit codes, output shapes and round-trips.

Everything runs in process through main(argv) so the exit code and the
captured text are asserted together.  Exit conventions: 0 affirmative,
1 negative answer, 2 usage or parse trouble, 3 internal failure.
"""

import hashlib
import json

import pytest

from ampadmg import (
    export_asp,
    intervene,
    magnify,
    parse,
    parse_constraints,
    parse_derivation,
)
from ampadmg.cli import main, run

from conftest import DATA


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


# -- equiv-check -------------------------------------------------------------


def test_equiv_check_reports_query_count(capsys):
    assert main(["equiv-check", "--graph", str(DATA / "double-edge.g")]) == 0
    assert capsys.readouterr().out == "6 queries, criteria 1-4 agree\n"
    assert main(["equiv-check", "--graph", str(DATA / "chain-lines.g")]) == 0
    assert capsys.readouterr().out == "24 queries, criteria 1-4 agree\n"
    assert main(["equiv-check", "--graph", str(DATA / "mixed6.g")]) == 0
    assert capsys.readouterr().out == "240 queries, criteria 1-4 agree\n"


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
    g = graph_file(tmp_path, "nodes A eps_A\n")
    assert main(["magnify", "--graph", g]) == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_negative_seed_is_usage_error(capsys):
    for argv in (["sem-check", "--graph", str(DATA / "mixed6.g")],
                 ["markov-verify", "--graph", str(DATA / "mixed6.g"),
                  "--property", "ordered-pairwise", "--oracle", "gaussian"]):
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be non-negative" in captured.err


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


def test_export_asp_dialect_flag(capsys):
    main(["export-asp", "--constraints", str(DATA / "indeps-obs.txt"),
          "--dialect", "both"])
    out = capsys.readouterr().out
    assert "{ biarrow(X,Y,0) }" in out
    assert ":- biarrow(X,Y,0), line(Z,W,0)." in out


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
