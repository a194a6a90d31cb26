"""Fig. 1: heterogeneous congestion controls are unfair to each other.

Five flows on the dumbbell, each with a different Linux stack (CUBIC,
Illinois, HighSpeed, New Reno, Vegas) over plain OVS with no switch ECN
(Fig. 1a), versus all five using CUBIC (Fig. 1b).  The paper's
observation: aggressive stacks (Illinois, HighSpeed) grab bandwidth and
delay-based Vegas starves, while the homogeneous case is much fairer.
"""

from __future__ import annotations

from typing import Dict, List

from ..metrics import jain_index
from ..runtime import Experiment, RunSpec
from .common import CUBIC, MICRO_DURATION, MICRO_RUNS
from .runners import cell, dumbbell_scenario

#: Flow-to-stack assignment of the paper's Fig. 1a.
HETEROGENEOUS_STACKS = ("cubic", "illinois", "highspeed", "reno", "vegas")
#: The figure's two configurations, Fig. 1a then Fig. 1b.
CONFIGS = {"heterogeneous": HETEROGENEOUS_STACKS, "all-cubic": ("cubic",) * 5}


def cells(seed: int, runs: int, duration: float, mtu: int) -> List[RunSpec]:
    """``runs`` repetitions per configuration, seeded from ``seed`` up."""
    return [cell(dumbbell_scenario(
        CUBIC, pairs=5, duration=duration, mtu=mtu, seed=seed + rep,
        host_ccs=list(stacks), rtt_probe=False))
        for stacks in CONFIGS.values() for rep in range(runs)]


def flow_stats(gbps: List[float]) -> dict:
    """One test's max/min/mean/median throughput and Jain fairness."""
    return {"max": max(gbps), "min": min(gbps),
            "mean": sum(gbps) / len(gbps),
            "median": sorted(gbps)[len(gbps) // 2],
            "fairness": jain_index(gbps)}


def tests_summary(tests: List[dict]) -> dict:
    """The tests and their mean fairness."""
    return {"tests": tests,
            "mean_fairness": sum(t["fairness"] for t in tests) / len(tests)}


def reduce(results: List[dict], runs: int, **_) -> Dict[str, dict]:
    """Per-test throughput for both configurations."""
    out: Dict[str, dict] = {}
    for i, (label, stacks) in enumerate(CONFIGS.items()):
        gbps = [[t / 1e9 for t in r["tputs_bps"]]
                for r in results[i * runs:(i + 1) * runs]]
        out[label] = tests_summary([{"per_flow_gbps": dict(zip(stacks, g)),
                                     **flow_stats(g)} for g in gbps])
    return out


run = Experiment(cells, reduce, {"runs": MICRO_RUNS,
                                 "duration": MICRO_DURATION, "mtu": 9000})
