"""How fast the shared host runs Python right now, and times scaled by it.

The benchmark's host is a VM on a shared machine.  Other tenants slow
every CPU-bound job in it, the program's CPU time as much as its wall
time, by up to half and for up to tens of minutes at a stretch
(README.md).  ``reference()`` times a fixed pure-Python job that depends
on nothing in the package.  A ``Sampler`` takes it every 0.25 s while a
run's ops execute, and ``scale`` turns each op's time into the time it
would have taken while the job took ``REF_S``: time × ``REF_S`` ÷ the
job's time during and around the op.  A change to the program moves the
scaled times as much as the raw ones; a slow spell of the host moves both
the op and the job, and cancels.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right

REF_S = 0.020
"""Seconds ``reference()`` takes on the reference machine in a quiet
minute (README.md).  It sets the scale of every timed metric."""

REF_EVERY_S = 0.25
"""While a timed loop runs, ``reference()`` is taken this often, from a
timer signal, so that ops longer than this are sampled while they run."""


def _job() -> int:
    # Small tuples, dicts, sets, sorting and calls: the kind of work the
    # package's graph code does, with no numpy and no I/O.
    total = 0
    for r in range(10):
        table = {}
        for i in range(4000):
            table[(i * 7919 + r) % 2003, i & 7] = i
        seen = set()
        for (a, b), v in table.items():
            if v & 1:
                seen.add(a ^ b)
        total += len(sorted(seen))
        total += sum(len(frozenset((a, a + 1, b))) for a, b in table)
    return total


def reference() -> float:
    """Seconds ``_job`` takes now, with the garbage collector off, so that
    the heap the program left behind does not change the job's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _job()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Takes ``reference()`` on entry, on exit and every ``REF_EVERY_S`` of
    wall time in between, from a ``SIGALRM`` timer that interrupts
    whatever op is running.  ``refs`` holds ``(position(), seconds)``
    pairs; ``paused_ns`` is the time spent taking them, which the caller
    leaves out of its op times.  With ``on`` false it does nothing.
    """

    def __init__(self, position, on=True):
        self.refs: list[tuple[int, float]] = []
        self.paused_ns = 0
        self._position = position
        self._on = on
        self._busy = False
        self._old_handler = None

    def take(self, *_signal_args) -> None:
        if self._busy:  # the timer fired while a reference was running
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        try:
            self.refs.append((self._position(), reference()))
        finally:
            self.paused_ns += time.perf_counter_ns() - t0
            self._busy = False

    def __enter__(self) -> Sampler:
        if self._on:
            self.take()
            self._old_handler = signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self.take()


def scale(ns, refs) -> list[float]:
    """Each op's time, scaled to the reference machine's speed, in ms.

    ``ns`` holds the op times in ns, in the order they ran.  ``refs``
    holds ``(position, seconds)`` pairs in the order they were taken:
    ``reference()`` took ``seconds`` when ``position`` ops had run.  The
    first pair is at position 0 and the last at ``len(ns)``.  An op is
    scaled by the mean of the pairs taken while it ran or just before it
    started (position equal to its index, or else the last one before),
    and the first one taken after it ended.
    """
    pos = [p for p, _ in refs]
    if not refs or pos[0] != 0 or pos[-1] != len(ns):
        raise ValueError("refs must bracket every op")
    out = []
    for j, t in enumerate(ns):
        lo, hi = bisect_left(pos, j), bisect_right(pos, j)
        around = [s for _, s in refs[lo:hi] or refs[lo - 1:lo]] + [refs[hi][1]]
        out.append(t / 1e6 * REF_S / (sum(around) / len(around)))
    return out
