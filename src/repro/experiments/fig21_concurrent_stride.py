"""Fig. 21: concurrent-stride workload — mice and background FCT CDFs.

17 servers on one switch.  Server *i* sends a background block to each
of servers *i+1..i+4* (mod 17), all four from the start, while sending a
16 KB mouse to server *i+8* every 100 ms.  The paper's result: DCTCP and
AC/DC cut mice median FCT by ~77% and tail FCT by >90% versus CUBIC,
while background transfers finish no slower (CUBIC's are actually longer
due to unfairness).

Scaling: 1 GbE links and 16 MB background blocks (vs 512 MB at 10 GbE),
sized so the background occupies the fabric for the whole mice-sending
window; the mice/elephant contention structure is unchanged.
"""

from __future__ import annotations

from typing import List

from ..metrics import FctRecorder
from ..runtime import Experiment, RunSpec
from ..workloads.generators import ConcurrentStride
from .common import ALL_SCHEMES, Testbed
from .runners import SCHEME_NAMES, by_label, cell
from .scenario import Scenario


#: Background block size: sized so the background occupies the fabric
#: for the whole mice-sending window.
BACKGROUND_BYTES = 16 * 1024 * 1024


def _cell(scenario: dict) -> dict:
    """Runtime worker: one scheme's mice and background FCTs."""
    sc = Scenario.from_json(scenario)
    tb = Testbed(sc)
    hosts, _switch = tb.parts
    recorder = FctRecorder()
    ConcurrentStride(
        tb.sim, hosts, recorder, background_bytes=BACKGROUND_BYTES,
        duration=sc.duration * 0.6, conn_opts=sc.scheme.conn_opts())
    r = tb.run()
    return {
        "mice_fcts": recorder.fcts("mice"),
        "background_fcts": recorder.fcts("background"),
        "mice_done": recorder.completion_fraction("mice"),
        "background_done": recorder.completion_fraction("background"),
        "drop_rate_pct": 100.0 * r.drop_rate,
    }


def cells(seed: int, duration: float) -> List[RunSpec]:
    return [cell(Scenario(s, "star", 17, duration, 1e9, 9000, seed),
                 f"{__name__}:_cell") for s in ALL_SCHEMES]


#: The concurrent-stride workload for all three schemes.
run = Experiment(cells, by_label(SCHEME_NAMES), {"duration": 0.8})
