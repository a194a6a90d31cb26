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

from typing import Dict

from ..metrics import jain_index, percentile
from .common import ALL_SCHEMES, DATA_PORT, Scheme, Testbed
from .scenario import Flow, Probe, Scenario


def run_scheme(scheme: Scheme, group_a: int = 10, stride: int = 2,
               duration: float = 0.6, mtu: int = 9000,
               rate_bps: float = 1e9, seed: int = 0) -> dict:
    """One scheme's run: probe RTT percentiles through the hot port."""
    a_hosts = [f"h{i + 1}" for i in range(group_a)]
    b1, b2 = f"h{group_a + 1}", f"h{group_a + 2}"
    flows = []
    for i, host in enumerate(a_hosts):
        # Within-A stride flows: i -> i+1 .. i+stride (mod A).
        flows += [Flow.of(scheme, host, a_hosts[(i + k) % group_a],
                          DATA_PORT + i) for k in range(1, stride + 1)]
        # Incast flow into B1.
        flows.append(Flow.of(scheme, host, b1, DATA_PORT + 100 + i))
    r = Testbed(Scenario(scheme, "star", group_a + 2, duration, rate_bps,
                         mtu, seed, flows=tuple(flows),
                         probe=Probe(b2, b1, 0.002, duration * 0.15))).run()
    tputs, rtt = r.tputs_bps, r.rtt_samples
    return {
        "avg_tput_mbps": sum(tputs) / len(tputs) / 1e6,
        "fairness": jain_index(tputs),
        "rtt_ms": {
            "p50": percentile(rtt, 50) * 1e3,
            "p95": percentile(rtt, 95) * 1e3,
            "p99": percentile(rtt, 99) * 1e3,
            "p999": percentile(rtt, 99.9) * 1e3,
        } if rtt else {},
        "drop_rate_pct": 100.0 * r.drop_rate,
    }


def run(duration: float = 0.6, seed: int = 0) -> Dict[str, dict]:
    """All three schemes on the scaled all-ports-congested pattern."""
    return {s.name: run_scheme(s, duration=duration, seed=seed)
            for s in ALL_SCHEMES}
