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

from typing import Dict, List

from ..metrics import FctRecorder
from ..runtime import Experiment, RunSpec
from ..sim.rng import RngFactory
from ..workloads.generators import TraceDriven
from ..workloads.traces import data_mining, web_search
from .common import ALL_SCHEMES, Testbed
from .runners import SCHEME_NAMES, cell
from .scenario import Scenario

SIZE_SCALE = 0.05
SIZE_CAP = 2 * 1024 * 1024


#: The figure's two flow-size distributions.
WORKLOADS = {"web-search": web_search, "data-mining": data_mining}


def _cell(scenario: dict, workload: str) -> dict:
    """Runtime worker: one scheme's mice/elephant FCTs."""
    sc = Scenario.from_json(scenario)
    tb = Testbed(sc)
    hosts, _switch = tb.parts
    recorder = FctRecorder()
    TraceDriven(tb.sim, hosts, recorder,
                WORKLOADS[workload](scale=SIZE_SCALE, max_bytes=SIZE_CAP),
                rng=RngFactory(sc.seed).stream("fig23.trace-apps"),
                conn_opts=sc.scheme.conn_opts())
    r = tb.run()
    return {
        "mice_fcts": recorder.fcts("mice"),
        "elephant_fcts": recorder.fcts("elephant"),
        "mice_done": recorder.completion_fraction("mice"),
        "drop_rate_pct": 100.0 * r.drop_rate,
    }


def cells(seed: int, duration: float) -> List[RunSpec]:
    return [cell(Scenario(s, "star", 17, duration, 1e9, 9000, seed),
                 f"{__name__}:_cell", workload=workload)
            for workload in WORKLOADS for s in ALL_SCHEMES]


def reduce(results: List[dict], **_) -> Dict[str, Dict[str, dict]]:
    """Both trace workloads (web-search, data-mining), all schemes."""
    width = len(ALL_SCHEMES)
    return {workload: dict(zip(SCHEME_NAMES, results[i * width:]))
            for i, workload in enumerate(WORKLOADS)}


run = Experiment(cells, reduce, {"duration": 1.5})
