"""Fig. 22: shuffle workload — mice and background FCT CDFs.

Every server sends a block to every other server in random order, at most
two transfers at a time, plus 16 KB mice to server *i+8* every 100 ms.
DCTCP and AC/DC cut mice FCTs sharply (median ~72%, tail 55–73%) while
large-transfer completion times stay comparable to CUBIC.

Scaling: 1 GbE links, 4 MB blocks (vs 512 MB at 10 GbE), a single
shuffle round instead of 30 repetitions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..metrics import FctRecorder
from ..net.topology import star
from ..runtime import RunSpec, Runtime, sweep
from ..sim.rng import RngFactory
from ..workloads.generators import Shuffle
from .common import ALL_SCHEMES, SCHEME_BY_NAME, Scheme, Testbed


def run_scheme(scheme: Scheme, hosts_n: int = 17, duration: float = 1.0,
               block_bytes: int = 4 * 1024 * 1024,
               mtu: int = 9000, rate_bps: float = 1e9, seed: int = 0) -> dict:
    """One scheme's shuffle run: mice and block FCTs."""
    tb = Testbed(scheme, star, rate_bps=rate_bps, n_hosts=hosts_n, mtu=mtu,
                 seed=seed)
    hosts, _switch = tb.parts
    recorder = FctRecorder()
    shuffle = Shuffle(
        tb.sim, hosts, recorder, block_bytes=block_bytes,
        rng=RngFactory(seed).stream("fig22.shuffle-order"), fanout=2,
        mice_bytes=16 * 1024, mice_interval=0.1, mice_until=duration * 0.6,
        conn_opts=scheme.conn_opts())
    r = tb.run(duration)
    return {
        "mice_fcts": recorder.fcts("mice"),
        "background_fcts": recorder.fcts("background"),
        "mice_done": recorder.completion_fraction("mice"),
        "background_done": recorder.completion_fraction("background"),
        "shuffle_finished": shuffle.finished(),
        "drop_rate_pct": 100.0 * r.drop_rate,
    }


def _cell(scheme: str, duration: float, seed: int) -> dict:
    """Runtime worker: one (scheme, seed) shuffle run, JSON kwargs only."""
    return run_scheme(SCHEME_BY_NAME[scheme], duration=duration, seed=seed)


def run(duration: float = 1.0, seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
        runtime: Optional[Runtime] = None) -> Dict[str, object]:
    """The shuffle workload for all three schemes.

    With ``seeds`` each (scheme, seed) run fans through the experiment
    runtime and the result is :func:`repro.runtime.sweep`'s multi-seed
    shape.
    """
    return sweep(
        runtime, seed, seeds,
        lambda sd: [RunSpec(f"{__name__}:_cell",
                            {"scheme": s.name, "duration": duration,
                             "seed": sd})
                    for s in ALL_SCHEMES],
        lambda sd, cells: {s.name: cell
                           for s, cell in zip(ALL_SCHEMES, cells)})
