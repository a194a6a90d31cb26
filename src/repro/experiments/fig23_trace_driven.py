"""Fig. 23: trace-driven workloads — mice FCT CDFs.

Per server, five applications each hold a long-lived connection to a
random peer and send messages back-to-back, sizes sampled from the
web-search [3] or data-mining [25] flow-size distribution.  The figure
reports the FCT CDF of mice (< 10 KB) flows; DCTCP and AC/DC cut the
median by ~72–77% and the 99.9th percentile by 36–55%.

Scaling: 1 GbE links and distribution sizes scaled by 0.05 with a 2 MB
cap (the mice region of the CDF is untouched by the cap; only elephant
tails shrink).
"""

from __future__ import annotations

from typing import Dict

from ..metrics import FctRecorder
from ..sim.rng import RngFactory
from ..workloads.generators import TraceDriven
from ..workloads.traces import FlowSizeDistribution, data_mining, web_search
from .common import ALL_SCHEMES, Scheme, Testbed
from .scenario import Scenario

SIZE_SCALE = 0.05
SIZE_CAP = 2 * 1024 * 1024


def run_scheme(scheme: Scheme, distribution: FlowSizeDistribution,
               hosts_n: int = 17, duration: float = 1.5,
               apps_per_host: int = 5, messages_per_app: int = 15,
               mtu: int = 9000, rate_bps: float = 1e9, seed: int = 0) -> dict:
    """One scheme's trace-driven run: mice/elephant FCTs."""
    tb = Testbed(Scenario(scheme, "star", hosts_n, duration, rate_bps, mtu,
                          seed))
    hosts, _switch = tb.parts
    recorder = FctRecorder()
    TraceDriven(tb.sim, hosts, recorder, distribution,
                rng=RngFactory(seed).stream("fig23.trace-apps"),
                apps_per_host=apps_per_host,
                messages_per_app=messages_per_app,
                conn_opts=scheme.conn_opts())
    r = tb.run()
    return {
        "mice_fcts": recorder.fcts("mice"),
        "elephant_fcts": recorder.fcts("elephant"),
        "mice_done": recorder.completion_fraction("mice"),
        "drop_rate_pct": 100.0 * r.drop_rate,
    }


def run(duration: float = 1.5, seed: int = 0) -> Dict[str, Dict[str, dict]]:
    """Both trace workloads (web-search, data-mining), all schemes."""
    out: Dict[str, Dict[str, dict]] = {}
    for workload, dist_factory in (("web-search", web_search),
                                   ("data-mining", data_mining)):
        dist = dist_factory(scale=SIZE_SCALE, max_bytes=SIZE_CAP)
        out[workload] = {
            s.name: run_scheme(s, dist, duration=duration, seed=seed)
            for s in ALL_SCHEMES
        }
    return out
