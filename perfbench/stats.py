"""Percentiles and the tail rule the benchmark reports by."""

from __future__ import annotations

import numpy as np

#: The tail of a sample is the highest percentile that leaves at least
#: this many samples beyond it (p99 at 1000 samples, p95 at 200), up to
#: p99; below 20 samples it is the median.
BEYOND = 10


def tail_q(n: int) -> float:
    if n < 2 * BEYOND:
        return 50.0
    return min(99.0, 100.0 * (1.0 - BEYOND / n))


def summary(values) -> dict:
    """``{"n", "p50", "tail", "tail_q"}`` of a latency sample."""
    values = list(values)
    q = tail_q(len(values))
    p50, tail = np.percentile(values, [50.0, q])
    return {"n": len(values), "p50": float(p50), "tail": float(tail), "tail_q": q}


def median(values) -> float:
    return float(np.percentile(list(values), 50.0))
