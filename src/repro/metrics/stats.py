"""Statistics helpers: percentiles, summaries, Jain's fairness index.

The paper's metrics (§5): TCP RTT percentiles, average throughput, flow
completion times, loss rate and Jain's fairness index [32].  Everything
here is pure-Python over plain lists so tests can reason about exact
values.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (like numpy's default).

    ``p`` is in [0, 100].  Raises on an empty sample set — silently
    returning 0 has hidden too many broken experiments.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p!r}")
    return _percentile_sorted(sorted(samples), p)


def _percentile_sorted(ordered: Sequence[float], p: float) -> float:
    """:func:`percentile` over an **already-sorted** sample set.

    The sorted-input fast path for callers that compute several
    percentiles of one distribution (``summarize`` reports p50, p95,
    p99 and p999 of one series; re-sorting the same list once per
    percentile is pure waste).  Inputs are assumed validated.
    """
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # Clamp: float interpolation may escape the bracket by an epsilon.
    return min(max(value, ordered[low]), ordered[high])


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 is fair."""
    if not values:
        raise ValueError("fairness of empty allocation")
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0  # everyone got exactly nothing: technically fair
    return (total * total) / (len(values) * squares)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """The summary rows the paper's tables report."""
    if not samples:
        raise ValueError("summary of empty sample set")
    ordered = sorted(samples)
    return {
        "count": float(len(ordered)),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "p50": _percentile_sorted(ordered, 50),
        "p95": _percentile_sorted(ordered, 95),
        "p99": _percentile_sorted(ordered, 99),
        "p999": _percentile_sorted(ordered, 99.9),
    }


def moving_average(series: Iterable[Tuple[float, float]],
                   window_s: float) -> List[Tuple[float, float]]:
    """Time-windowed moving average of a (time, value) series.

    Used for the Fig. 9b "100 ms moving average" view of window sizes.
    Timestamps must be non-decreasing: the sliding eviction pointer
    assumes time order, and out-of-order input used to under- or
    over-evict silently (the average went wrong with no error).  A point
    exactly ``window_s`` old is still inside the window (inclusive left
    edge).
    """
    points = list(series)
    if window_s <= 0:
        raise ValueError("window must be positive")
    out: List[Tuple[float, float]] = []
    start = 0
    acc = 0.0
    prev_t: Optional[float] = None
    for i, (t, v) in enumerate(points):
        if prev_t is not None and t < prev_t:
            raise ValueError(
                f"moving_average needs non-decreasing timestamps: point "
                f"{i} at t={t!r} follows t={prev_t!r}; sort the series "
                f"before averaging")
        prev_t = t
        acc += v
        while points[start][0] < t - window_s:
            acc -= points[start][1]
            start += 1
        out.append((t, acc / (i - start + 1)))
    return out
