"""Fig. 15/16: the ECN coexistence problem, and AC/DC's fix.

One CUBIC flow (no ECN) and one DCTCP flow (ECN) share a bottleneck whose
WRED/ECN profile marks ECT packets above K and *drops* non-ECT ones
(Judd [36], Wu [72]).  The CUBIC flow suffers constant loss and starves,
and its RTT/retransmissions spike (Fig. 16).  Attaching AC/DC makes every
flow ECN-capable on the wire, restoring the fair share and low latency.
"""

from __future__ import annotations

from typing import List

from ..runtime import Experiment, RunSpec
from .common import Scheme, Testbed
from .runners import by_label, cell, dumbbell_scenario
from .scenario import Scenario

#: "Default": plain OVS; host stacks CUBIC (no ECN) + DCTCP (ECN); switch
#: marking ON (that is the coexistence trap).  "AC/DC": the same guest
#: mix, AC/DC in the vSwitch.
SCHEMES = {
    "default": Scheme("default-mixed", host_cc="cubic", host_ecn=False,
                      vswitch="plain", switch_ecn=True),
    "acdc": Scheme("acdc-mixed", host_cc="cubic", host_ecn=False,
                   vswitch="acdc", switch_ecn=True),
}


def _cell(scenario: dict) -> dict:
    """Runtime worker: shares, RTTs and the CUBIC flow's retransmits."""
    result = Testbed(Scenario.from_json(scenario)).run()
    cubic_bps, dctcp_bps = result.tputs_bps
    return {
        "cubic_gbps": cubic_bps / 1e9,
        "dctcp_gbps": dctcp_bps / 1e9,
        "cubic_share": cubic_bps / max(cubic_bps + dctcp_bps, 1.0),
        "rtt_samples": result.rtt_samples,   # probe rides the CUBIC host
        "rtt": result.rtt_summary(),
        "drop_rate": result.drop_rate,
        "cubic_retransmits": result.flows[0].conn.retransmitted_bytes,
    }


def cells(seed: int, duration: float, mtu: int) -> List[RunSpec]:
    return [cell(dumbbell_scenario(
        scheme, pairs=2, duration=duration, mtu=mtu, seed=seed,
        host_ccs=["cubic", "dctcp"], host_ecns=[False, True],
        rtt_probe=True, probe_interval=0.005, probe_pipelined=True),
        f"{__name__}:_cell") for scheme in SCHEMES.values()]


#: The coexistence trap with plain OVS, then with AC/DC attached.
run = Experiment(cells, by_label(SCHEMES), {"duration": 1.0, "mtu": 9000})
