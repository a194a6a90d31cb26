"""§5.1 parking-lot numbers (text results for the Fig. 7b topology).

Each sender's flow crosses a different number of bottlenecks on the
switch chain.  The paper reports: CUBIC averages 2.48 Gb/s with fairness
0.94; DCTCP and AC/DC average 2.45 Gb/s with fairness 0.99; AC/DC's
RTTs track DCTCP's (~124/136 µs median) while CUBIC's are milliseconds.
"""

from __future__ import annotations

from typing import List

from ..runtime import Experiment, RunSpec
from .common import ALL_SCHEMES
from .runners import (
    SCHEME_NAMES, by_label, cell, parking_lot_scenario, summary)


def cells(seed: int, duration: float, mtu: int) -> List[RunSpec]:
    return [cell(parking_lot_scenario(s, n_senders=5, duration=duration,
                                      mtu=mtu, seed=seed))
            for s in ALL_SCHEMES]


#: Throughput/fairness/RTT on the parking lot, all three schemes.
run = Experiment(cells, by_label(SCHEME_NAMES, summary),
                 {"duration": 1.0, "mtu": 9000})
