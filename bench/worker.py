"""One workload in one fresh process; started by ``run.py``.

    python3 bench/worker.py --workload W --seed S --mode setup|timed|traced
                            --t0 T --seconds N [--traced-first]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import ampadmg``,
input generation and one warm-up op per op kind.  The result is one JSON
object on the last line of stdout; the commands' own output is captured
and never reaches it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import ampadmg.cli  # found through the PYTHONPATH run.py sets

import hostspeed
import spans
import stats
import workloads

OUT = Path(__file__).resolve().parent / "out"


class Pass:
    """The ops one loop ran: per execution the op index and latency, per
    pass over the op list its wall time, the host's speed while they ran
    (``hostspeed``), and per op its first exit code and output."""

    def __init__(self):
        self.index = array("i")
        self.ns = array("q")
        self.pass_s: list[float] = []
        self.refs: list[tuple[int, float]] = []
        """``(ops run so far, hostspeed.reference() seconds)``."""
        self.first: dict[int, tuple] = {}
        self.repeats_differ = 0

    @property
    def wall_s(self) -> float:
        return sum(self.pass_s)


def run_ops(ops, main, passes=1, rec=None, calibrate=False) -> Pass:
    """Closed loop, one client: the next op starts when the last returns.

    Runs ``passes`` passes over ``ops``, each in list order.  With
    ``calibrate`` a ``hostspeed.Sampler`` times the host's speed while the
    loop runs; the op and pass times leave that time out.
    """
    res = Pass()
    real_out, real_err = sys.stdout, sys.stderr
    clock = time.perf_counter_ns
    with hostspeed.Sampler(lambda: len(res.ns), on=calibrate) as sampler:
        for k in range(passes * len(ops)):
            i = k % len(ops)
            if i == 0:
                pass_start = clock() - sampler.paused_ns
            op = ops[i]
            out, err = io.StringIO(), io.StringIO()
            if rec is not None:
                rec.op_id = k
            sys.stdout, sys.stderr = out, err
            t0 = clock() - sampler.paused_ns
            try:
                rc = main(op.argv)
            except Exception as exc:  # main() handles its own; this is a crash
                rc = f"uncaught {exc!r}"
            t1 = clock() - sampler.paused_ns
            sys.stdout, sys.stderr = real_out, real_err
            res.index.append(i)
            res.ns.append(t1 - t0)
            first = res.first.get(i)
            if first is None:
                res.first[i] = (rc, out.getvalue(), err.getvalue())
            elif first[:2] != (rc, out.getvalue()):
                res.repeats_differ += 1
            if i == len(ops) - 1:
                res.pass_s.append((clock() - sampler.paused_ns - pass_start) / 1e9)
    res.refs = sampler.refs
    return res


def check(name, ops, p: Pass) -> tuple[int, list]:
    """Failed executions and the first few reasons; runs after the loop."""
    check_op = workloads.checker(name)
    runs = [0] * len(ops)
    for i in p.index:
        runs[i] += 1
    failed, reasons = p.repeats_differ, []
    if p.repeats_differ:
        reasons.append(f"{p.repeats_differ} repeated ops changed their output")
    for i, (rc, out, err) in sorted(p.first.items()):
        try:
            why = check_op(ops[i], rc, out)
        except Exception as exc:  # a malformed answer is a failed op
            why = f"check raised {exc!r}"
        if why:
            failed += runs[i]
            reasons.append(f"op {i} ({ops[i].argv[0]}): {why}"
                           + (f"; stderr {err.strip()[:200]!r}" if err else ""))
    return failed, reasons[:5]


def digest(p: Pass) -> tuple[str, int]:
    """SHA-256 of the stdout of every op the loop ran, in op-list order."""
    h = hashlib.sha256()
    for i in sorted(p.first):
        h.update(p.first[i][1].encode())
    return h.hexdigest(), len(p.first)


def latency(p: Pass) -> dict:
    """Throughput and latency of one loop.

    When a ``hostspeed.Sampler`` timed the host during the loop, every op
    time is first scaled to the reference machine's speed
    (``hostspeed.scale``), and the raw figures are kept beside the scaled
    ones.  ``ops_per_s`` is completed ops over their summed time, so every
    cost the program pays shows in it.  The percentiles run over the
    distinct ops, each timed by the median of its repeats.  The schedule
    (``workloads.schedule``) depends on ``--seconds`` only, so every
    commit times the same ops the same number of times.
    """
    raw = [v / 1e6 for v in p.ns]
    res = {"ops": len(p.ns), "passes": len(p.pass_s), "wall_s": p.wall_s,
           "loop_ops_per_s": len(p.ns) / p.wall_s}
    if p.refs:
        ref_s = [s for _, s in p.refs]
        res.update({"refs": len(ref_s), "ref_s_median": statistics.median(ref_s),
                    "ref_s_range": [min(ref_s), max(ref_s)]})
        res.update({f"raw_{k}": v for k, v in _figures(p.index, raw).items()})
        res.update(_figures(p.index, hostspeed.scale(p.ns, p.refs)))
    else:
        res.update(_figures(p.index, raw))
    return res


def _figures(index, ms) -> dict:
    by_op: dict[int, list] = {}
    for i, v in zip(index, ms):
        by_op.setdefault(i, []).append(v)
    per_op = [statistics.median(v) for v in by_op.values()]
    pct = stats.tail_percentile(len(per_op))
    return {"ops_per_s": len(ms) / (sum(ms) / 1e3), "distinct_ops": len(per_op),
            "op_p50_ms": stats.percentile(per_op, 50),
            "op_tail_ms": stats.percentile(per_op, pct),
            "tail_percentile": pct, "tail_beyond": stats.beyond(len(per_op), pct)}


def facts(args) -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "seed": args.seed}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced-first", action="store_true",
                    help="traced mode: run the traced pass before the plain one")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def run(args, workdir: Path) -> dict:
    cli_main = ampadmg.cli.main
    inputs = workloads.build(args.workload, args.seed, workdir)
    for op in inputs.warmup:
        run_ops([op], cli_main)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "facts": facts(args)}
    if args.mode == "setup":
        return result
    ops = inputs.ops
    if args.mode == "timed":
        p = run_ops(ops, cli_main, passes=workloads.schedule(inputs, args.seconds),
                    calibrate=True)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(latency(p))
        result["failed"], result["failures"] = check(args.workload, ops, p)
        result["stdout_sha256"], result["digest_ops"] = digest(p)
        return result

    prefix = ops[:inputs.trace_ops]
    rec = spans.Recorder()

    def traced_pass():
        undo = spans.install(rec)
        try:
            return run_ops(prefix, rec.wrap(cli_main, "cli.main"), rec=rec)
        finally:
            spans.uninstall(undo)

    # The two traced processes run the passes in opposite orders, so that
    # warming effects cancel in the overhead estimate.
    if args.traced_first:
        traced = traced_pass()
        plain = run_ops(prefix, cli_main)
    else:
        plain = run_ops(prefix, cli_main)
        traced = traced_pass()
    metrics, absent = spans.per_layer(rec)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.npz"
    spans.save(rec, spans_path)
    failed = 0
    reasons = []
    for p in (plain, traced):
        f, r = check(args.workload, prefix, p)
        failed += f
        reasons += r
    result.update({
        "per_layer": metrics, "absent": absent, "spans": len(rec.start),
        "spans_file": str(spans_path.relative_to(OUT.parent.parent)),
        "plain": latency(plain), "traced": latency(traced),
        "attempted": len(plain.ns) + len(traced.ns), "failed": failed,
        "failures": reasons[:5],
        "stdout_sha256": digest(plain)[0],
        "traced_sha256": digest(traced)[0],
    })
    return result


if __name__ == "__main__":
    main()
