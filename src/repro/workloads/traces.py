"""Flow-size distributions for the trace-driven workloads (Fig. 23).

The paper samples message sizes from two published datacenter workloads:

* **web-search** — the DCTCP paper's production cluster [3]: most flows
  are a few KB of query traffic, with a modest heavy tail of background
  transfers up to tens of MB.
* **data-mining** — the VL2 cluster [25]: an extremely heavy tail; over
  half the flows are under 1 KB while a tiny fraction reach hundreds of
  MB and carry most of the bytes.

We encode each as a piecewise log-linear CDF matching the published
curves and sample by inverse transform.  ``scale`` lets experiments shrink
sizes proportionally (the simulator trades absolute duration for shape;
see EXPERIMENTS.md).
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Sequence, Tuple

#: (size_bytes, cumulative probability) control points.
WEB_SEARCH_CDF: List[Tuple[float, float]] = [
    (1_000, 0.00),
    (6_000, 0.15),
    (13_000, 0.30),
    (19_000, 0.50),
    (33_000, 0.60),
    (53_000, 0.70),
    (133_000, 0.80),
    (667_000, 0.90),
    (1_300_000, 0.95),
    (6_600_000, 0.98),
    (20_000_000, 1.00),
]

DATA_MINING_CDF: List[Tuple[float, float]] = [
    (100, 0.00),
    (300, 0.20),
    (1_000, 0.50),
    (2_000, 0.60),
    (10_000, 0.78),
    (100_000, 0.90),
    (1_000_000, 0.95),
    (10_000_000, 0.975),
    (100_000_000, 0.99),
    (1_000_000_000, 1.00),
]

#: The paper's mice-flow cutoff for Fig. 23 ("flows < 10KB").
MICE_CUTOFF_BYTES = 10_000


class FlowSizeDistribution:
    """Inverse-transform sampler over a piecewise log-linear CDF."""

    def __init__(self, cdf: Sequence[Tuple[float, float]], name: str = "",
                 scale: float = 1.0, max_bytes: float = float("inf")):
        if len(cdf) < 2:
            raise ValueError("CDF needs at least two control points")
        sizes = [s for s, _ in cdf]
        probs = [p for _, p in cdf]
        if sorted(sizes) != sizes or sorted(probs) != probs:
            raise ValueError("CDF control points must be non-decreasing")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("CDF must span probability 0 to 1")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.name = name
        self.scale = scale
        self.max_bytes = max_bytes
        self._log_sizes = [math.log(s) for s in sizes]
        self._probs = probs

    def quantile(self, u: float) -> int:
        """Flow size at cumulative probability ``u`` (before scaling cap)."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"quantile arg must be in [0,1], got {u!r}")
        idx = bisect.bisect_left(self._probs, u)
        idx = min(max(idx, 1), len(self._probs) - 1)
        p0, p1 = self._probs[idx - 1], self._probs[idx]
        s0, s1 = self._log_sizes[idx - 1], self._log_sizes[idx]
        frac = 0.0 if p1 == p0 else (u - p0) / (p1 - p0)
        log_size = s0 + frac * (s1 - s0)
        size = math.exp(log_size) * self.scale
        return max(1, round(min(size, self.max_bytes)))

    def sample(self, rng: random.Random) -> int:
        return self.quantile(rng.random())


def web_search(scale: float = 1.0, max_bytes: float = float("inf")) -> FlowSizeDistribution:
    """The DCTCP-paper web-search workload."""
    return FlowSizeDistribution(WEB_SEARCH_CDF, "web-search", scale, max_bytes)


def data_mining(scale: float = 1.0, max_bytes: float = float("inf")) -> FlowSizeDistribution:
    """The VL2 data-mining workload (heavier tail)."""
    return FlowSizeDistribution(DATA_MINING_CDF, "data-mining", scale, max_bytes)
