"""Fig. 21: concurrent-stride workload — mice and background FCT CDFs.

17 servers on one switch.  Server *i* sends a background block to servers
*i+1..i+4* (mod 17) sequentially while sending a 16 KB mouse to server
*i+8* every 100 ms.  The paper's result: DCTCP and AC/DC cut mice median
FCT by ~77% and tail FCT by >90% versus CUBIC, while background transfers
finish no slower (CUBIC's are actually longer due to unfairness).

Scaling: 1 GbE links and 16 MB background blocks (vs 512 MB at 10 GbE),
sized so the background occupies the fabric for the whole mice-sending
window; the mice/elephant contention structure is unchanged.
"""

from __future__ import annotations

from typing import Dict

from ..metrics import FctRecorder
from ..workloads.generators import ConcurrentStride
from .common import ALL_SCHEMES, Scheme, Testbed
from .scenario import Scenario


def run_scheme(scheme: Scheme, hosts_n: int = 17, duration: float = 0.8,
               background_bytes: int = 16 * 1024 * 1024,
               mtu: int = 9000, rate_bps: float = 1e9, seed: int = 0) -> dict:
    """One scheme's concurrent-stride run: mice and background FCTs."""
    tb = Testbed(Scenario(scheme, "star", hosts_n, duration, rate_bps, mtu,
                          seed))
    hosts, _switch = tb.parts
    recorder = FctRecorder()
    ConcurrentStride(
        tb.sim, hosts, recorder,
        background_bytes=background_bytes, background_rounds=1,
        mice_bytes=16 * 1024, mice_interval=0.1, duration=duration * 0.6,
        conn_opts=scheme.conn_opts())
    r = tb.run()
    return {
        "mice_fcts": recorder.fcts("mice"),
        "background_fcts": recorder.fcts("background"),
        "mice_done": recorder.completion_fraction("mice"),
        "background_done": recorder.completion_fraction("background"),
        "drop_rate_pct": 100.0 * r.drop_rate,
    }


def run(duration: float = 0.8, seed: int = 0) -> Dict[str, dict]:
    """The concurrent-stride workload for all three schemes."""
    return {s.name: run_scheme(s, duration=duration, seed=seed)
            for s in ALL_SCHEMES}
