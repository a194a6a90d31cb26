"""Fig. 22: shuffle workload — mice and background FCT CDFs.

Every server sends a block to every other server in random order, at most
two transfers at a time, plus 16 KB mice to server *i+8* every 100 ms.
DCTCP and AC/DC cut mice FCTs sharply (median ~72%, tail 55–73%) while
large-transfer completion times stay comparable to CUBIC.

Scaling: 1 GbE links, 4 MB blocks (vs 512 MB at 10 GbE), a single
shuffle round instead of 30 repetitions.
"""

from __future__ import annotations

from typing import List

from ..metrics import FctRecorder
from ..runtime import Experiment, RunSpec
from ..sim.rng import RngFactory
from ..workloads.generators import Shuffle
from .common import ALL_SCHEMES, Testbed
from .runners import SCHEME_NAMES, by_label
from .scenario import Scenario


def run_scheme(scenario: Scenario, block_bytes: int = 4 * 1024 * 1024) -> dict:
    """One scheme's shuffle on a star Scenario: mice and block FCTs."""
    tb = Testbed(scenario)
    hosts, _switch = tb.parts
    recorder = FctRecorder()
    shuffle = Shuffle(
        tb.sim, hosts, recorder, block_bytes=block_bytes,
        rng=RngFactory(scenario.seed).stream("fig22.shuffle-order"),
        mice_until=scenario.duration * 0.6,
        conn_opts=scenario.scheme.conn_opts())
    r = tb.run()
    return {
        "mice_fcts": recorder.fcts("mice"),
        "background_fcts": recorder.fcts("background"),
        "mice_done": recorder.completion_fraction("mice"),
        "background_done": recorder.completion_fraction("background"),
        "shuffle_finished": shuffle.finished(),
        "drop_rate_pct": 100.0 * r.drop_rate,
    }


def _cell(scenario: dict) -> dict:
    """Runtime worker: one (scheme, seed) shuffle run from its Scenario."""
    return run_scheme(Scenario.from_json(scenario))


def cells(seed: int, duration: float) -> List[RunSpec]:
    return [RunSpec(f"{__name__}:_cell", {"scenario": Scenario(
        s, "star", 17, duration, 1e9, 9000, seed).to_json()})
        for s in ALL_SCHEMES]


#: The shuffle workload for all three schemes.
run = Experiment(cells, by_label(SCHEME_NAMES), {"duration": 1.0})
