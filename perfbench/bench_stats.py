"""Statistics helpers shared by the workloads.

Everything here is pure and deterministic, so the helper tests in
``perfbench/tests`` pin its arithmetic down exactly.
"""

from __future__ import annotations

import math
import statistics

import numpy as np


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it.

    Returns ``(q, value)``, where ``value`` is the nearest-rank ``q``-th
    percentile of ``values``.  With n samples, q is
    ``floor(100 * (n - 10) / n)`` and the value is the order statistic
    of rank ``ceil(q * n / 100)``, which leaves at least ten samples
    above it.  With fewer than 20 samples that percentile lies below the
    median, which is no tail; the maximum is returned instead, as
    ``(100, max)``.
    """
    beyond = 10
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    if n < 2 * beyond:
        return 100, ordered[-1]
    q = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, ordered[rank - 1]


def nan_equal(a, b) -> bool:
    """Exact equality of nested metric containers where NaN equals NaN.

    Floats compare bitwise-equal in value (``0.0 == -0.0`` as in
    ``np.array_equal``), NaN matches NaN, and ``MetricSummary``-like
    objects compare through their ``mean``/``std`` fields with the same
    semantics as ``MetricSummary.__eq__``.  Plain ``dict ==`` is False
    for two identical dicts holding a NaN, which is the defect this
    replaces.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(nan_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(nan_equal(x, y) for x, y in zip(a, b))
    if hasattr(a, "mean") and hasattr(a, "std") and not isinstance(
            a, (np.ndarray, np.generic, float, int)):
        return (type(a) is type(b) and nan_equal(a.mean, b.mean)
                and nan_equal(a.std, b.std))
    if isinstance(a, (float, int, np.floating, np.integer)) and isinstance(
            b, (float, int, np.floating, np.integer)):
        return bool(np.array_equal(a, b, equal_nan=True))
    return a == b


def poisson_offsets(rate: float, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from phase start) of ``count`` Poisson arrivals.

    Inter-arrival gaps are exponential with mean ``1 / rate``; the
    schedule is fixed before the phase starts, so a slow system cannot
    slow the arrivals down (an open loop).
    """
    if rate <= 0 or count < 1:
        raise ValueError("rate must be positive and count >= 1")
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def union_length(intervals, lo: float = -math.inf,
                 hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` after clipping to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - union_length(children, start, end)

