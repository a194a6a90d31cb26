"""Fig. 6: bounding RWND controls throughput exactly like bounding CWND.

One flow on an uncongested path.  The CWND series clamps the host stack
(Linux's ``snd_cwnd_clamp``); the RWND series leaves the host unclamped
and instead caps AC/DC's enforced window (``FlowPolicy.max_rwnd``).  The
two curves should coincide: linear in the clamp until the line rate, then
flat.  The paper uses the resulting curve to convert a desired bandwidth
cap into a maximum RWND (§3.4).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence

from ..core import FlowPolicy, PolicyEngine
from ..net.packet import mss_for_mtu
from ..runtime import Experiment, RunSpec
from .common import ACDC, CUBIC
from .runners import cell, dumbbell_scenario

#: Sweep points (in MSS) roughly matching the paper's x-axes.
CLAMPS_1500 = (2, 5, 10, 20, 40, 80, 120, 180, 250)
CLAMPS_9000 = (1, 2, 3, 4, 6, 8, 10, 12, 16)


def clamps_for_mtu(mtu: int) -> Sequence[int]:
    """The figure's x-axis points for the given MTU."""
    return CLAMPS_9000 if mtu >= 9000 else CLAMPS_1500


def cells(seed: int, mtu: int, duration: float) -> List[RunSpec]:
    """Per clamp: a CWND clamp in the host stack (plain OVS), then an
    RWND clamp in AC/DC."""
    mss = mss_for_mtu(mtu)
    one_flow = partial(dumbbell_scenario, pairs=1, duration=duration,
                       mtu=mtu, seed=seed, rtt_probe=False)
    return [cell(scenario) for clamp in clamps_for_mtu(mtu) for scenario in (
        one_flow(CUBIC, max_cwnd=clamp * mss),
        one_flow(ACDC, policy=PolicyEngine(
            default=FlowPolicy(max_rwnd=clamp * mss))))]


def reduce(results: List[dict], mtu: int, **_) -> Dict[str, List[dict]]:
    """(clamp_mss, throughput) series for both clamping mechanisms."""
    series = [[{"clamp_mss": clamp, "tput_gbps": r["tputs_bps"][0] / 1e9}
               for clamp, r in zip(clamps_for_mtu(mtu), results[k::2])]
              for k in (0, 1)]
    return {"cwnd": series[0], "rwnd": series[1]}


run = Experiment(cells, reduce, {"mtu": 9000, "duration": 0.3})
