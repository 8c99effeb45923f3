"""Order statistics shared by the runner and its workers.  Stdlib only."""

from __future__ import annotations

import bisect
import math
import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_xs: list[float], pct: int) -> float:
    """The ``pct``-th percentile of sorted samples by the nearest-rank rule."""
    return sorted_xs[max(0, math.ceil(pct * len(sorted_xs) / 100) - 1)]


def tail(xs: list[float], min_beyond: int = TAIL_MIN_BEYOND) -> dict:
    """Highest whole percentile in 50..99 with ``min_beyond`` samples above it.

    Returns the value, the percentile and the number of samples strictly
    above the value.  With too few samples for any such percentile it falls
    back to the median and says how many samples lie beyond.
    """
    s = sorted(xs)
    for pct in range(99, 49, -1):
        value = nearest_rank(s, pct)
        beyond = len(s) - bisect.bisect_right(s, value)
        if beyond >= min_beyond:
            break
    return {"value": value, "percentile": pct, "beyond": beyond, "samples": len(s)}


def latency_summary(latencies: list[float], window: int | None) -> dict:
    """End-to-end timing figures of one timed loop.

    ``ops_per_s`` is taken over the time spent inside operations, so the
    benchmark's own checking between operations does not dilute it.

    ``latency_p50_s`` is the mean, over windows of ``window`` consecutive
    operations, of each window's median; the last, partial window is
    dropped, and None makes the whole loop one window.  A shared host swings
    in speed by up to 1.5x for seconds at a time.  A whole-run median then
    lands on whichever speed held for most of the run and jumps between
    runs when neither dominates; the mean over windows blends the swings as
    the throughput does, while each window's median still ignores single
    slow operations.
    """
    if window is None or window > len(latencies):
        window = len(latencies)
    medians = [statistics.median(latencies[i:i + window])
               for i in range(0, len(latencies) - window + 1, window)]
    busy = sum(latencies)
    return {
        "ops": len(latencies),
        "busy_s": busy,
        "ops_per_s": len(latencies) / busy,
        "latency_p50_s": statistics.fmean(medians),
        "tail": tail(latencies),
        "window_ops": window,
        "window_p50_s": medians,
        "run_latency_p50_s": statistics.median(latencies),
    }
