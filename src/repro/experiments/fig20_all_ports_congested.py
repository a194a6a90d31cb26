"""Fig. 20: RTT through the most congested port when ~all ports congest.

The paper splits 48 NICs into group A (46) and B (B1, B2).  Every A NIC
sends 4 concurrent flows within A (stride pattern) and one flow to B1 —
a 46-to-1 incast — congesting 47 of 48 ports and pressuring the shared
buffer's dynamic allocation.  The probe measures RTT from B2 to B1,
i.e. through the most congested port.

Scaling: group A defaults to 10 hosts with stride-2 flows on 1 GbE links
(the pressure pattern — every port congested plus a deep incast port —
is preserved; see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List

from ..metrics import jain_index, percentile
from ..runtime import Experiment, RunSpec
from .common import ALL_SCHEMES, DATA_PORT, Scheme
from .runners import SCHEME_NAMES, by_label, cell
from .scenario import Flow, Probe, Scenario


#: Group A's size and each A host's within-A stride.
GROUP_A, STRIDE = 10, 2


def _scenario(scheme: Scheme, seed: int, duration: float) -> Scenario:
    """One scheme's run; the probe measures RTT through the hot port."""
    a_hosts = [f"h{i + 1}" for i in range(GROUP_A)]
    b1, b2 = f"h{GROUP_A + 1}", f"h{GROUP_A + 2}"
    flows = []
    for i, host in enumerate(a_hosts):
        # Within-A stride flows: i -> i+1 .. i+stride (mod A).
        flows += [Flow.of(scheme, host, a_hosts[(i + k) % GROUP_A],
                          DATA_PORT + i) for k in range(1, STRIDE + 1)]
        # Incast flow into B1.
        flows.append(Flow.of(scheme, host, b1, DATA_PORT + 100 + i))
    return Scenario(scheme, "star", GROUP_A + 2, duration, 1e9, 9000, seed,
                    flows=tuple(flows),
                    probe=Probe(b2, b1, 0.002, duration * 0.15))


def _summary(result: dict) -> dict:
    """Probe RTT percentiles, mean throughput and fairness of one run."""
    tputs, rtt = result["tputs_bps"], result["rtt_samples"]
    return {
        "avg_tput_mbps": sum(tputs) / len(tputs) / 1e6,
        "fairness": jain_index(tputs),
        "rtt_ms": {
            "p50": percentile(rtt, 50) * 1e3,
            "p95": percentile(rtt, 95) * 1e3,
            "p99": percentile(rtt, 99) * 1e3,
            "p999": percentile(rtt, 99.9) * 1e3,
        } if rtt else {},
        "drop_rate_pct": 100.0 * result["drop_rate"],
    }


def cells(seed: int, duration: float) -> List[RunSpec]:
    return [cell(_scenario(s, seed, duration)) for s in ALL_SCHEMES]


#: All three schemes on the scaled all-ports-congested pattern.
run = Experiment(cells, by_label(SCHEME_NAMES, _summary), {"duration": 0.6})
