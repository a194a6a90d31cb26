"""The metric registry: named fixed-bucket histograms and sources.

No dependencies and no dynamic resizing: histogram bucket bounds are
fixed at registration (HDR-style), so two runs of the same seed produce
identical snapshots regardless of the values' arrival order — the
property ``RunResult.telemetry`` byte-identity rests on.

Besides its histograms, the registry holds **sources**: callables
evaluated at snapshot time that return a number or a flat dict of
numbers.  Subsystems that already keep their own counters (``OpsCounter``,
``PortStats``, the engine) register a source instead of double-counting.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Dict, List, Sequence, Tuple, Union

Number = Union[int, float]


def pow2_bounds(lo: int, count: int) -> Tuple[int, ...]:
    """``count`` power-of-two bucket bounds starting at ``lo``."""
    if lo <= 0 or count <= 0:
        raise ValueError("lo and count must be positive")
    return tuple(lo * (1 << i) for i in range(count))


class Histogram:
    """Fixed-bucket histogram (bounds are upper-inclusive edges).

    A value lands in the first bucket whose bound it does not exceed;
    values above the last bound land in the overflow bucket, so
    ``len(counts) == len(bounds) + 1`` and no sample is ever lost.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, name: str, bounds: Sequence[Number]):
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total: Number = 0
        # The extremes so far; the first finite value passes both, and
        # an empty histogram's snapshot reports None for them.
        self.min_value: Number = math.inf
        self.max_value: Number = -math.inf

    def record(self, value: Number) -> None:
        """Count one finite value."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min_value if self.count else None,
            "max": self.max_value if self.count else None,
        }


class MetricRegistry:
    """Name -> histogram or source, with deterministic snapshots.

    Re-registering an existing histogram name returns the existing
    histogram; a name is either a histogram or a source, never both.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], object]] = {}

    # ------------------------------------------------------------------
    def histogram(self, name: str, bounds: Sequence[Number]) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            return existing
        if name in self._sources:
            raise ValueError(f"metric {name!r} is already a source")
        metric = self._metrics[name] = Histogram(name, bounds)
        return metric

    def source(self, name: str, fn: Callable[[], object]) -> None:
        """Register a snapshot-time callable returning a number or a
        flat ``{key: number}`` dict (flattened as ``name.key``)."""
        if name in self._metrics or name in self._sources:
            raise ValueError(f"metric {name!r} is already registered")
        self._sources[name] = fn

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """All histograms and sources, sorted by name, JSON-able."""
        out: Dict[str, object] = {}
        for name, metric in self._metrics.items():
            out[name] = metric.snapshot()
        for name, fn in self._sources.items():
            value = fn()
            if isinstance(value, dict):
                for key in sorted(value):
                    out[f"{name}.{key}"] = value[key]
            else:
                out[name] = value
        return {name: out[name] for name in sorted(out)}

    def __len__(self) -> int:
        return len(self._metrics) + len(self._sources)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics or name in self._sources
