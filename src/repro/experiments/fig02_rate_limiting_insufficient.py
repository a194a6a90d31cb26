"""Fig. 2: per-flow rate limiting alone does not control latency.

Five CUBIC flows, each rate-limited to its "perfect" 2 Gb/s share, still
fill the drop-tail switch buffer and inflate RTTs; five unlimited DCTCP
flows keep the queue (and RTT) low.  This motivates enforcing *congestion
control*, not just bandwidth allocation (§2.3).
"""

from __future__ import annotations

from typing import List

from ..runtime import Experiment, RunSpec
from .common import CUBIC, DCTCP, RunResult
from .runners import by_label, cell, dumbbell_scenario


def cells(seed: int, duration: float, mtu: int,
          per_flow_limit_bps: float) -> List[RunSpec]:
    """Rate-limited CUBIC, then unlimited DCTCP."""
    return [cell(dumbbell_scenario(CUBIC, pairs=5, duration=duration, mtu=mtu,
                                   seed=seed,
                                   pacing_rate_bps=per_flow_limit_bps)),
            cell(dumbbell_scenario(DCTCP, pairs=5, duration=duration, mtu=mtu,
                                   seed=seed))]


def _row(result: dict) -> dict:
    r = RunResult(**result)
    return {"rtt_samples": r.rtt_samples, "rtt": r.rtt_summary(),
            "tput_gbps": [t / 1e9 for t in r.tputs_bps]}


#: RTT samples for rate-limited CUBIC vs unlimited DCTCP.
run = Experiment(cells, by_label(("cubic_rl2g", "dctcp"), _row),
                 {"duration": 1.0, "mtu": 9000, "per_flow_limit_bps": 2e9})
