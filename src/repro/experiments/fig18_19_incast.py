"""Fig. 18/19: many-to-one incast — throughput, fairness, RTT, drops.

N ∈ {16, 32, 40, 47} senders fan long-lived flows into one receiver.
Expected shape (paper):

* throughput ≈ line rate / N for every scheme, fairness > 0.99 for
  DCTCP and AC/DC (Fig. 18);
* CUBIC's RTT and drop rate blow up; DCTCP's RTT *grows with N* because
  its 2-packet CWND floor keeps N×2×MSS bytes in the queue; AC/DC's
  byte-granular RWND floor stays below that, so its RTT stays flat and
  lowest (Fig. 19) with zero drops.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..metrics import percentile
from ..runtime import Experiment, RunSpec
from .common import ALL_SCHEMES, Taps, Testbed
from .runners import incast_scenario
from .scenario import Scenario

SENDER_COUNTS = (16, 32, 40, 47)


def _cell(scenario: dict, telemetry: bool = False) -> dict:
    """Runtime worker: one (scheme, fan-in, seed) cell from its Scenario.

    ``telemetry=True`` attaches an :class:`~repro.obs.ObsContext` and
    returns its deterministic snapshot plus the raw trace records — the
    payload the runtime byte-identity tests compare across serial, pool
    and cache-replay execution.
    """
    obs = None
    if telemetry:
        from ..obs import ObsContext
        obs = ObsContext()
    r = Testbed(Scenario.from_json(scenario), Taps(obs=obs)).run()
    rtt = r.rtt_samples
    out: Dict[str, object] = {
        "avg_tput_mbps": r.avg_tput_bps / 1e6,
        "fairness": r.fairness,
        "rtt_p50_ms": percentile(rtt, 50) * 1e3 if rtt else float("nan"),
        "rtt_p999_ms": percentile(rtt, 99.9) * 1e3 if rtt else float("nan"),
        "drop_rate_pct": r.drop_rate * 100.0,
    }
    if obs is not None:
        out["telemetry"] = r.telemetry
        out["trace"] = obs.bus.records()
    return out


def cells(seed: int, counts: Sequence[int], duration: float,
          mtu: int) -> List[RunSpec]:
    return [RunSpec(f"{__name__}:_cell", {"scenario": incast_scenario(
        s, n, duration=duration, mtu=mtu, seed=seed).to_json()})
        for n in counts for s in ALL_SCHEMES]


def reduce(results: List[dict], counts: Sequence[int], **_) -> List[dict]:
    """Throughput/fairness/RTT/drops per scheme per fan-in count."""
    width = len(ALL_SCHEMES)
    return [{"senders": n,
             **{s.name: results[i * width + j]
                for j, s in enumerate(ALL_SCHEMES)}}
            for i, n in enumerate(counts)]


run = Experiment(cells, reduce, {"counts": SENDER_COUNTS, "duration": 0.4,
                                 "mtu": 9000})
