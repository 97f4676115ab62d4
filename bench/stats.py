"""Order statistics for op latencies."""

from __future__ import annotations

import math

LADDER = (50, 90, 99)
"""Percentiles ``op_tail_ms`` may report, lowest first."""

MIN_BEYOND = 10


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - math.ceil(n * p / 100)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that has at least ten of n samples
    beyond it.  Below 20 samples none has, and the median stands in;
    ``beyond`` then says how few samples it rests on."""
    for p in reversed(LADDER):
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return LADDER[0]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p percent
    of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]
