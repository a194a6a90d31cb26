"""Fig. 17: AC/DC restores fairness across heterogeneous guest stacks.

The Fig. 1 experiment repeated: five different guest stacks (CUBIC,
Illinois, HighSpeed, New Reno, Vegas) — but now AC/DC enforces DCTCP in
the vSwitch (Fig. 17b).  The reference (Fig. 17a) is all five flows
running native DCTCP.  Max/min/mean/median per test should nearly
coincide in both cases.
"""

from __future__ import annotations

from typing import Dict, List

from ..runtime import Experiment, RunSpec
from .common import ACDC, DCTCP, MICRO_DURATION, MICRO_RUNS
from .fig01_heterogeneous_unfairness import (
    HETEROGENEOUS_STACKS, flow_stats, tests_summary)
from .runners import cell, dumbbell_scenario

#: Label -> (scheme, per-flow guest stacks, per-flow guest ECN).
CONFIGS = {
    "all-dctcp": (DCTCP, None, None),
    "acdc-mixed": (ACDC, list(HETEROGENEOUS_STACKS),
                   [cc == "dctcp" for cc in HETEROGENEOUS_STACKS]),
}


def cells(seed: int, runs: int, duration: float, mtu: int) -> List[RunSpec]:
    """``runs`` repetitions per configuration, seeded from ``seed`` up."""
    return [cell(dumbbell_scenario(
        scheme, pairs=5, duration=duration, mtu=mtu, seed=seed + rep,
        host_ccs=ccs, host_ecns=ecns, rtt_probe=False))
        for scheme, ccs, ecns in CONFIGS.values() for rep in range(runs)]


def reduce(results: List[dict], runs: int, **_) -> Dict[str, dict]:
    """Per-test max/min/mean/median for all-DCTCP vs AC/DC-mixed."""
    return {label: tests_summary([
        flow_stats([t / 1e9 for t in result["tputs_bps"]])
        for result in results[i * runs:(i + 1) * runs]])
        for i, label in enumerate(CONFIGS)}


run = Experiment(cells, reduce, {"runs": MICRO_RUNS,
                                 "duration": MICRO_DURATION, "mtu": 9000})
