"""Fig. 8 (+ the §5.1 'canonical topologies' numbers): dumbbell RTT CDF.

One long-lived flow per server pair; CUBIC fills the buffer (milliseconds
of queueing) while DCTCP and AC/DC keep RTTs in the ~100 µs range.  Also
reports the per-flow throughputs (all three schemes achieve the same
~2 Gb/s fair share on this topology).
"""

from __future__ import annotations

from typing import List

from ..runtime import Experiment, RunSpec
from .common import ALL_SCHEMES
from .runners import SCHEME_NAMES, by_label, cell, dumbbell_scenario, summary


def cells(seed: int, duration: float, mtu: int) -> List[RunSpec]:
    return [cell(dumbbell_scenario(s, pairs=5, duration=duration, mtu=mtu,
                                   seed=seed)) for s in ALL_SCHEMES]


#: RTT samples, throughput and fairness for all three schemes.
run = Experiment(cells, by_label(SCHEME_NAMES, lambda r: {
    "rtt_samples": r["rtt_samples"], **summary(r)}),
    {"duration": 1.0, "mtu": 9000})
