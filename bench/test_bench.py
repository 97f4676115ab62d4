"""Tests of the benchmark itself: ``PYTHONPATH=src python3 -m pytest bench``."""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import hostspeed
import oracle
import run
import spans
import stats
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


# -- generators ------------------------------------------------------------------


def _all_generated(seed):
    rng = random.Random(seed)
    return [
        gen.random_graph(rng, 9, "alt"),
        gen.random_graph(rng, 24, "orig"),
        gen.chain_graph(rng, 8),
        gen.constraint_file(rng, 4, 12, lambda x, y, c, r: (x + y + len(c) + r) % 2 == 0, 3),
        gen.derivation_script([gen.rule_step(rng, 20) for _ in range(30)]),
    ]


def test_generators_repeat_byte_for_byte():
    assert _all_generated(5) == _all_generated(5)
    assert _all_generated(5) != _all_generated(6)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_repeat_byte_for_byte(name, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        inputs = workloads.build(name, seed, d)
        return ({p.name: p.read_bytes() for p in sorted(d.iterdir())},
                [[a.replace(str(d), "") for a in op.argv] for op in inputs.ops])

    first = files(3, "a")
    assert first == files(3, "b")
    assert first != files(4, "c")


def test_generated_graphs_are_valid_and_chain_graphs_are_chain_graphs():
    import ampadmg

    rng = random.Random(1)
    for n in range(4, 12):
        ampadmg.parse(gen.random_graph(rng, n, "alt"))
        ampadmg.parse(gen.random_graph(rng, n, "orig"))
        assert ampadmg.parse(gen.chain_graph(rng, n)).is_amp_cg()


def test_constraint_files_flip_only_dependences():
    def truth(x, y, cond, regime):  # separated exactly when cond is empty
        return not cond

    text = gen.constraint_file(random.Random(2), 4, 12, truth, 3)
    rows = [line.split() for line in text.splitlines()[1:]]
    assert all(r[0] == "indep" for r in rows if r[3] == "{}")
    assert [r[0] for r in rows if r[3] != "{}"].count("indep") <= gen.FLIPS
    regimes = [int(r[4]) for r in rows]
    assert sum(1 for r in regimes if r) == 3 and len({r for r in regimes if r}) == 1


# -- oracle ----------------------------------------------------------------------


def test_oracle_surgery_matches_the_package():
    import ampadmg

    rng = random.Random(3)
    for trial in range(300):
        n = rng.randint(2, 9)
        text = gen.random_graph(rng, n, ("alt", "orig")[trial % 2])
        x = rng.sample(range(1, n + 1), rng.randint(1, n))
        want = oracle.parse_graph(ampadmg.serialize(ampadmg.intervene(ampadmg.parse(text), x)))
        assert oracle.intervene(oracle.parse_graph(text), x) == want


def test_oracle_separation_matches_criterion_2():
    import ampadmg

    rng = random.Random(4)
    for trial in range(300):
        n = rng.randint(3, 8)
        text = gen.random_graph(rng, n, ("alt", "orig")[trial % 2])
        nodes = rng.sample(range(1, n + 1), n)
        x, y, z = nodes[:1], nodes[1:2], nodes[2:2 + rng.randint(0, n - 2)]
        q = ampadmg.SeparationQuery(x, y, z)
        assert oracle.separated(oracle.parse_graph(text), x, y, z) == \
            ampadmg.separated(ampadmg.parse(text), q, criterion=2)


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    #  0: [0, 100]  root
    #  1: [10, 30]  child of 0
    #  2: [20, 50]  child of 0, overlaps 1: the union [10, 50] counts once
    #  3: [90, 120] child of 0, runs past its parent: clipped to [90, 100]
    #  4: [12, 18]  child of 1
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 18]
    parent = [-1, 0, 0, 0, 1]
    assert spans.self_times(start, end, parent) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_recorder_nests_spans_and_counts():
    rec = spans.Recorder()

    def leaf(v):
        return [v]

    wrapped_leaf = rec.wrap(leaf, "graph.parse", count=lambda r: rec.counts.update(n=len(r)))

    def outer():
        return wrapped_leaf(1) + wrapped_leaf(2)

    rec.op_id = 7
    assert rec.wrap(outer, "cli.main")() == [1, 2]
    names = [rec.names[i] for i in rec.name]
    assert names == ["cli.main", "graph.parse", "graph.parse"]
    assert list(rec.parent) == [-1, 0, 0] and list(rec.op) == [7, 7, 7]
    assert rec.counts["n"] == 2
    selfs = spans.self_times(rec.start, rec.end, rec.parent)
    assert sum(selfs) == rec.end[0] - rec.start[0]


def test_generator_spans_count_items():
    rec = spans.Recorder()
    gen_fn = rec.wrap_generator(lambda: iter(range(3)), "learner.enumerate_graphs", "items")
    assert list(gen_fn()) == [0, 1, 2]
    assert rec.counts["items"] == 3 and len(rec.start) == 4  # 3 items + StopIteration


def test_install_wraps_every_target_and_uninstall_restores():
    import ampadmg.cli
    from ampadmg.graph import MixedGraph

    before = (ampadmg.cli.separated, MixedGraph.validate, ampadmg.learner.score)
    undo = spans.install(spans.Recorder())
    try:
        assert ampadmg.cli.separated is ampadmg.separation.separated
        assert ampadmg.cli.separated.__wrapped__ is before[0]
        assert MixedGraph.__dict__["validate"].__wrapped__ is before[1]
    finally:
        spans.uninstall(undo)
    assert (ampadmg.cli.separated, MixedGraph.validate, ampadmg.learner.score) == before


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize("n, want", [
    (100, 90), (448, 90), (999, 90), (1000, 99), (99, 50), (20, 50), (8, 50), (1, 50),
])
def test_tail_percentile_has_ten_samples_beyond_it(n, want):
    assert stats.tail_percentile(n) == want


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 90) == 90
    assert stats.beyond(100, 90) == 10
    assert stats.percentile([5.0], 99) == 5.0


# -- schedule and latency ---------------------------------------------------------


def test_schedule_counts_whole_passes_from_seconds_only():
    inputs = workloads.Inputs(ops=list(range(10)), warmup=[], op_s=0.5, trace_ops=2)
    assert workloads.schedule(inputs, 0.1) == 1
    assert workloads.schedule(inputs, 2) == 1
    assert workloads.schedule(inputs, 5) == 1
    assert workloads.schedule(inputs, 11) == 2
    assert workloads.schedule(inputs, 14) == 3


def test_run_ops_times_every_pass():
    calls = []
    ops = [workloads.Op("k", ["a"]), workloads.Op("k", ["b"])]
    p = worker.run_ops(ops, lambda argv: calls.append(argv[0]) or 0, passes=3)
    assert calls == list("ababab") and list(p.index) == [0, 1] * 3
    assert len(p.pass_s) == 3 and p.wall_s == sum(p.pass_s)


def test_latency_takes_each_ops_median_repeat_and_the_summed_rate():
    p = worker.Pass()
    for k, ms in enumerate([1, 10, 3, 30, 2, 20]):
        p.index.append(k % 2)
        p.ns.append(ms * 1_000_000)
    p.pass_s = [0.2, 0.125, 0.175]
    got = worker.latency(p)
    assert got["ops_per_s"] == pytest.approx(6 / 0.066) and got["loop_ops_per_s"] == 12
    assert got["passes"] == 3 and got["distinct_ops"] == 2
    assert got["op_p50_ms"] == 2 and got["op_tail_ms"] == 2  # two ops: the median stands in

    ref = hostspeed.REF_S
    p.refs = [(0, ref), (3, 2 * ref), (6, 2 * ref)]
    got = worker.latency(p)
    assert got["raw_op_p50_ms"] == 2 and got["refs"] == 3
    assert got["op_p50_ms"] == pytest.approx(1)  # op 0 scales to 0.67, 2 and 1 ms
    assert got["ops_per_s"] == pytest.approx(6 / (0.014 / 1.5 + 0.052 / 2))


def test_hostspeed_scales_each_op_by_the_references_around_it():
    ref = hostspeed.REF_S
    got = hostspeed.scale([1_000_000, 2_000_000, 4_000_000], [(0, ref), (1, 2 * ref), (3, 2 * ref)])
    assert got == pytest.approx([1 / 1.5, 1, 2])
    # two samples while the op ran, one after it
    assert hostspeed.scale([1_000_000], [(0, ref), (0, 3 * ref), (1, ref)]) == pytest.approx([0.6])
    with pytest.raises(ValueError):
        hostspeed.scale([1_000_000], [(0, ref)])
    assert hostspeed.reference() > 0


def test_run_ops_brackets_the_ops_with_references():
    ops = [workloads.Op("k", ["a"])]
    p = worker.run_ops(ops, lambda argv: 0, passes=4, calibrate=True)
    assert p.refs[0][0] == 0 and p.refs[-1][0] == 4
    assert worker.run_ops(ops, lambda argv: 0).refs == []


def test_sampler_times_the_host_while_an_op_runs_and_leaves_that_out():
    def busy(argv):
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        return 0

    p = worker.run_ops([workloads.Op("k", ["a"])], busy, calibrate=True)
    assert sum(pos == 0 for pos, _ in p.refs) >= 3  # on entry, then the timer
    assert p.refs[-1][0] == 1
    assert p.ns[0] < 600_000_000
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_digest_covers_every_op_in_list_order():
    p = worker.Pass()
    p.first = {1: (0, "b", ""), 0: (0, "a", "")}
    whole = worker.digest(p)
    assert whole[1] == 2
    p.first = {0: (0, "a", "")}
    assert worker.digest(p)[0] != whole[0]


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    metrics, _ = spans.per_layer(spans.Recorder())
    assert {m["name"] for m in spec["per_layer"]} == set(metrics) | {"trace.overhead_frac"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
