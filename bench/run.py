"""The benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep|learn|query|all --seed N \
                         --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in fresh processes (``worker.py``) with
BLAS/OpenMP threads pinned to 1.  With ``--trace 0`` the last line of
stdout is a JSON object holding the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import COUNT_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
"""Processes whose set-up time is measured; ``setup_s`` is their median.
Half of the set-up-only processes run before the timed one and half after,
so the median draws on two moments of a shared machine."""
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# ROADMAP baseline, measured by hand on the same 2-core machine:
# (label, hand number, workload, per-layer metric it is read from, note)
BASELINE = (
    ("enumerate_graphs(4) us/graph", 45.0, "learn", "learner.enumerate_graphs.us",
     "traced time inside the generator, incl. MixedGraph validation"),
    ("criterion 1 us/query", 8.5, "sweep", "separation.separated.c1.us",
     "hand: n=4 singleton queries; here n=6..9 equiv-check queries, traced"),
    ("criterion 2 us/query", 5.2, "sweep", "separation.separated.c2.us",
     "as above; includes the nested connects_route span"),
    ("criterion 3 us/query", 17.8, "sweep", "separation.separated.c3.us", "as above"),
    ("criterion 4 us/query", 18.9, "sweep", "separation.separated.c4.us", "as above"),
    ("intervene us/call", 27.0, "learn", "docalc.intervene.us",
     "single node, n=4, as by hand; traced"),
    ("learn s/problem (n=4)", 1.77, "learn", None,
     "hand: 2 constraints, alt only; here 10-14 constraints with regimes, untraced"),
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith((".calls", ".candidates", ".statements")):
        return "count"
    if metric.endswith(".us"):
        return "us"
    if metric.endswith(".self_ms"):
        return "ms"
    return "fraction"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, seconds: float, *extra: str) -> dict:
    """Run one worker process to completion and return its result."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--t0", repr(t0), "--seconds", str(seconds),
         *extra],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def timed(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups_raw, setups = [], []

    def setup(mode):
        # The host's speed just before the process starts scales its set-up
        # time, as the worker scales its op times (hostspeed.py).
        ref = statistics.median([hostspeed.reference() for _ in range(3)])
        res = spawn(workload, seed, mode, seconds)
        setups_raw.append(res["setup_s"])
        setups.append(res["setup_s"] * hostspeed.REF_S / ref)
        return res

    for _ in range((SETUP_RUNS - 1) // 2):
        setup("setup")
    res = setup("timed")
    for _ in range(SETUP_RUNS // 2):
        setup("setup")
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update({k: res[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")})
    run = {"workload": workload, "failed": res["failed"],
           "error_rate": res["failed"] / res["ops"], "setup_runs_s": setups,
           "raw_setup_runs_s": setups_raw, "raw_setup_s": statistics.median(setups_raw),
           **{k: res[k] for k in (
               "ops", "distinct_ops", "passes", "wall_s", "loop_ops_per_s", "tail_percentile",
               "tail_beyond", "refs", "ref_s_median", "ref_s_range", "raw_ops_per_s",
               "raw_op_p50_ms", "raw_op_tail_ms", "stdout_sha256", "digest_ops", "failures")},
           **res["facts"]}
    return metrics, run


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    first = spawn(workload, seed, "traced", 0)
    second = spawn(workload, seed, "traced", 0, "--traced-first")
    a, b = first["per_layer"], second["per_layer"]
    a["trace.overhead_frac"] = 1 - (
        (first["plain"]["wall_s"] + second["plain"]["wall_s"])
        / (first["traced"]["wall_s"] + second["traced"]["wall_s"]))
    reasons = first["failures"] + second["failures"]
    unstable = [k for k in COUNT_METRICS if a[k] != b[k]]
    if unstable:
        reasons.append(f"counts differ between two same-seed runs: {unstable}")
    changed = first["stdout_sha256"] != first["traced_sha256"]
    if changed:
        reasons.append("tracing changed the commands' output")
    run = {"workload": workload, "ops": first["attempted"] + second["attempted"],
           "failed": first["failed"] + second["failed"] + len(unstable) + changed,
           "spans": first["spans"], "spans_file": first["spans_file"],
           "absent": first["absent"], "plain": first["plain"],
           "traced": first["traced"], "stdout_sha256": first["stdout_sha256"],
           "counts_repeat": not unstable, "failures": reasons[:5], **first["facts"]}
    run["error_rate"] = run["failed"] / run["ops"]
    return a, run


def report(metrics: dict, run: dict) -> None:
    """The human-readable part: one metric per line, then the run facts."""
    w = run["workload"]
    for name, value in metrics.items():
        print(f"{w:6} {name:40} {value:14.6g} {unit_of(name)}")
    print(f"{w:6} {'error_rate':40} {run['error_rate']:14.6g} fraction")
    if "tail_percentile" in run:
        print(f"{w:6} {run['passes']} passes over {run['distinct_ops']} ops; op_tail_ms is "
              f"p{run['tail_percentile']:g} ({run['tail_beyond']} ops beyond it); times are "
              f"scaled to the reference host speed, raw: setup_s {run['raw_setup_s']:.6g}, "
              f"ops_per_s {run['raw_ops_per_s']:.6g}, op_p50_ms {run['raw_op_p50_ms']:.6g}, "
              f"op_tail_ms {run['raw_op_tail_ms']:.6g}")
    for msg in run["failures"]:
        print(f"{w:6} FAILED {msg}")
    print(f"{w:6} facts {json.dumps(run, sort_keys=True)}")


def baseline(results: dict) -> None:
    """The ROADMAP baseline table beside this run's traced numbers."""
    print("baseline: ROADMAP hand number -> this run (note)")
    for label, hand, workload, metric, note in BASELINE:
        if workload not in results:
            continue
        metrics, run = results[workload]
        value = metrics[metric] if metric else run["plain"]["wall_s"] / run["plain"]["ops"]
        print(f"  {label:30} {hand:8.3g} -> {value:8.3g}  ({note})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ampadmg" / "cli.py").is_file():
        print(f"error: no ampadmg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    host = {"nproc": os.cpu_count(), "cpu": cpu_model(), "loadavg_start": os.getloadavg(),
            "seconds": args.seconds, "trace": args.trace}
    results = {}
    try:
        for name in names:
            results[name] = (traced(name, args.seed) if args.trace
                             else timed(name, args.seed, args.seconds))
            report(*results[name])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host["loadavg_end"] = os.getloadavg()
    print(f"host {json.dumps(host)}")
    if args.trace:
        baseline(results)

    def key(w, m):
        return m if len(names) == 1 else f"{w}.{m}"

    failed = sum(run["failed"] for _, run in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["ops"] for _, run in results.values()),
        "failed": failed,
        "metrics": {key(w, m): {"value": v, "unit": unit_of(m)}
                    for w, (metrics, _) in results.items() for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
