"""Spans around the package's public functions, recorded from outside.

``install(recorder)`` replaces each traced function, under every name its
callers look it up by (``ampadmg.cli.separated``,
``ampadmg.learner.score``, ``MixedGraph.validate`` ...), with a wrapper
that records a span: name, start, end, parent span and the op id of the
command that caused it.  ``uninstall`` puts the originals back.  Nothing
in ``src/`` changes.

Spans live in typed arrays while the run lasts and are written out once,
when it ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import Counter

# (module, attribute, span name).  A function bound under several names is
# wrapped once and the one wrapper is bound under all of them.
TARGETS = (
    ("ampadmg.cli", "parse", "graph.parse"),
    ("ampadmg.cli", "serialize", "graph.serialize"),
    ("ampadmg.graph:MixedGraph", "validate", "graph.validate"),
    ("ampadmg.cli", "separated", "separation.separated"),
    ("ampadmg.separation", "separated", "separation.separated"),
    ("ampadmg.separation", "connects_route", "separation.connects_route"),
    ("ampadmg.docalc", "connects_route", "separation.connects_route"),
    ("ampadmg.cli", "ordered_local_statements", "markov.generate"),
    ("ampadmg.cli", "ordered_pairwise_statements", "markov.generate"),
    ("ampadmg.cli", "amp_statements", "markov.generate"),
    ("ampadmg.cli", "verify_statements", "markov.verify_statements"),
    ("ampadmg.cli", "random_sem", "sem.random_sem"),
    ("ampadmg.cli", "implied_covariance", "sem.implied_covariance"),
    ("ampadmg.cli", "ci_test", "sem.ci_test"),
    ("ampadmg.sem", "ci_test", "sem.ci_test"),
    ("ampadmg.cli", "magnify", "sem.magnify"),
    ("ampadmg.cli", "intervene", "docalc.intervene"),
    ("ampadmg.docalc", "intervene", "docalc.intervene"),
    ("ampadmg.learner", "intervene", "docalc.intervene"),
    ("ampadmg.docalc", "with_regime_nodes", "docalc.with_regime_nodes"),
    ("ampadmg.cli", "rule_applicable", "docalc.rule_applicable"),
    ("ampadmg.docalc", "rule_applicable", "docalc.rule_applicable"),
    ("ampadmg.cli", "parse_derivation", "docalc.parse_derivation"),
    ("ampadmg.cli", "check_derivation", "docalc.check_derivation"),
    ("ampadmg.cli", "learn", "learner.learn"),
    ("ampadmg.cli", "parse_constraints", "learner.parse_constraints"),
    ("ampadmg.learner", "enumerate_graphs", "learner.enumerate_graphs"),
    ("ampadmg.learner", "score", "learner.score"),
    ("ampadmg.learner", "regime_graph", "learner.regime_graph"),
)

MODULES = ("graph", "separation", "markov", "sem", "docalc", "learner", "cli")


def _criterion(args, kwargs) -> int:
    return kwargs.get("criterion", args[2] if len(args) > 2 else 2)


class Recorder:
    """Spans as parallel arrays indexed by span id, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, count=None, name_of=None):
        """A wrapper recording one span per call of ``fn``.

        ``count(result)`` runs after each call; ``name_of(args, kwargs)``
        picks a span name per call in place of ``name``.
        """
        nid = self.name_id(name)
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.op)
        stack, clock, rec, name_id = self.stack, time.perf_counter_ns, self, self.name_id

        # Span bookkeeping is inlined here and in wrap_generator: a learn
        # pass records about 600k spans, and a helper call per span would
        # add to the overhead being measured.
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id(name_of(args, kwargs)) if name_of else nid)
            parents.append(stack[-1])
            ops.append(rec.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn, name: str, counter: str):
        """A wrapper recording one span per resumption of the generator
        ``fn`` returns, and counting the items it yields."""
        nid = self.name_id(name)
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.op)
        stack, clock, rec, counts = self.stack, time.perf_counter_ns, self, self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ops.append(rec.op_id)
                ends.append(0)
                stack.append(i)
                starts.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                    stack.pop()
                counts[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(rec: Recorder) -> list:
    """Bind a recording wrapper under every name in ``TARGETS``; returns
    what :func:`uninstall` needs to undo it."""
    counts = rec.counts
    special = {
        "separation.separated": dict(
            name_of=lambda a, k: f"separation.separated.c{_criterion(a, k)}"),
        "markov.generate": dict(count=lambda r: counts.update(
            {"markov.generate.statements": len(r)})),
        "learner.score": dict(count=lambda r: counts.update(
            {"learner.score.feasible": r is not None})),
        "learner.learn": dict(count=lambda r: counts.update(
            {"learner.learn.models": len(r.models)})),
    }
    wrappers: dict[int, object] = {}
    undo = []
    for path, attr, name in TARGETS:
        owner = _resolve(path)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        w = wrappers.get(id(fn))
        if w is None:
            if name == "learner.enumerate_graphs":
                w = rec.wrap_generator(fn, name, "learner.enumerate_graphs.candidates")
            else:
                w = rec.wrap(fn, name, **special.get(name, {}))
            wrappers[id(fn)] = w
        undo.append((owner, attr, fn))
        setattr(owner, attr, w)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


# -- arithmetic ------------------------------------------------------------------


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it its children cover.

    Spans are indexed in start order, so each parent meets its children
    in start order and one pass measures the union of the children's
    intervals, clipped to the parent's.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)  # per parent: where its children's union ends so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def per_layer(rec: Recorder) -> tuple[dict, dict]:
    """The per-layer metrics of one traced pass, and why any is absent.

    ``.us`` is the median microseconds per call, ``.self_ms`` the pass
    total of self time, ``.calls`` an exact count.
    """
    selfs = self_times(rec.start, rec.end, rec.parent)
    durations: dict[str, list] = {}
    self_ns: Counter = Counter()
    module_ns: Counter = Counter()
    for nid, s, e, own in zip(rec.name, rec.start, rec.end, selfs):
        name = rec.names[nid]
        durations.setdefault(name, []).append(e - s)
        self_ns[name] += own
        module_ns[name.split(".")[0]] += own
    counts = rec.counts
    absent: dict[str, str] = {}

    def calls(*names):
        return sum(len(durations.get(n, ())) for n in names)

    def us(name):
        d = durations.get(name)
        if not d:
            absent[f"{name}.us"] = "no calls on this workload"
            return 0.0
        return statistics.median(d) / 1e3

    def ms(ns):
        return ns / 1e6

    sep = [f"separation.separated.c{c}" for c in (1, 2, 3, 4)]
    candidates = counts["learner.enumerate_graphs.candidates"]
    enum_ns = sum(durations.get("learner.enumerate_graphs", ()))
    scored = calls("learner.score")
    m = {
        "graph.parse.calls": calls("graph.parse"),
        "graph.parse.us": us("graph.parse"),
        "graph.serialize.us": us("graph.serialize"),
        "graph.validate.calls": calls("graph.validate"),
        "graph.validate.self_ms": ms(self_ns["graph.validate"]),
        "separation.separated.calls": calls(*sep),
        **{f"{n}.us": us(n) for n in sep},
        "separation.connects_route.calls": calls("separation.connects_route"),
        "separation.connects_route.us": us("separation.connects_route"),
        "markov.generate.statements": counts["markov.generate.statements"],
        "markov.generate.self_ms": ms(self_ns["markov.generate"]),
        "markov.verify_statements.self_ms": ms(self_ns["markov.verify_statements"]),
        "sem.random_sem.us": us("sem.random_sem"),
        "sem.implied_covariance.us": us("sem.implied_covariance"),
        "sem.ci_test.calls": calls("sem.ci_test"),
        "sem.ci_test.us": us("sem.ci_test"),
        "docalc.intervene.calls": calls("docalc.intervene"),
        "docalc.intervene.us": us("docalc.intervene"),
        "docalc.with_regime_nodes.us": us("docalc.with_regime_nodes"),
        "docalc.rule_applicable.calls": calls("docalc.rule_applicable"),
        "docalc.rule_applicable.us": us("docalc.rule_applicable"),
        "learner.enumerate_graphs.candidates": candidates,
        "learner.enumerate_graphs.us": enum_ns / candidates / 1e3 if candidates else 0.0,
        "learner.score.calls": scored,
        "learner.score.us": us("learner.score"),
        "learner.regime_graph.calls": calls("learner.regime_graph"),
        "learner.score.feasible_frac":
            counts["learner.score.feasible"] / scored if scored else 0.0,
        "learner.models_per_scored":
            counts["learner.learn.models"] / scored if scored else 0.0,
        "cli.main.self_ms": ms(self_ns["cli.main"]),
        **{f"{mod}.self_ms": ms(module_ns[mod]) for mod in MODULES if mod != "cli"},
    }
    if not candidates:
        absent["learner.enumerate_graphs.us"] = "no candidates enumerated"
    if not scored:
        absent["learner.score.feasible_frac"] = "learner.score never called"
        absent["learner.models_per_scored"] = "learner.score never called"
    return m, absent


COUNT_METRICS = (
    "graph.parse.calls", "graph.validate.calls", "separation.separated.calls",
    "separation.connects_route.calls", "markov.generate.statements",
    "sem.ci_test.calls", "docalc.intervene.calls", "docalc.rule_applicable.calls",
    "learner.enumerate_graphs.candidates", "learner.score.calls",
    "learner.regime_graph.calls", "learner.score.feasible_frac",
    "learner.models_per_scored")
"""Metrics that must repeat exactly for the same seed."""


def save(rec: Recorder, path) -> None:
    """Write the spans as one compressed numpy archive."""
    import numpy as np

    np.savez_compressed(
        path, names=np.array(rec.names),
        **{f: np.frombuffer(getattr(rec, f), dtype=np.int64)
           for f in ("name", "start", "end", "parent", "op")})
