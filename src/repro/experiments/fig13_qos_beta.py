"""Fig. 13: differentiated throughput via QoS-parameterised CC (Eq. 1).

Host stacks are all CUBIC; AC/DC enforces the priority-generalised DCTCP
with a per-flow ``beta`` picked from the figure's 4-point scale.  Flows
with equal beta should see equal throughput; higher beta, more
throughput; ``beta = 0`` flows back off to the 1-MSS floor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core import FlowPolicy, PolicyEngine
from ..metrics import jain_index
from ..runtime import Experiment, RunSpec
from .common import ACDC
from .runners import cell, dumbbell_scenario

#: The figure's experiments: per-flow beta numerators on a 4-point scale.
BETA_COMBOS: Tuple[Tuple[int, ...], ...] = (
    (2, 2, 2, 2, 2),
    (2, 2, 1, 1, 1),
    (2, 2, 2, 1, 1),
    (3, 2, 2, 1, 1),
    (3, 3, 2, 2, 1),
    (4, 4, 4, 0, 0),
)


def _policy_for(betas: Sequence[float]) -> PolicyEngine:
    engine = PolicyEngine()
    for i, beta in enumerate(betas):
        engine.add_rule(PolicyEngine.match_src(f"s{i + 1}"),
                        FlowPolicy(beta=beta))
    return engine


def cells(seed: int, combos: Sequence[Sequence[int]], duration: float,
          mtu: int) -> List[RunSpec]:
    return [cell(dumbbell_scenario(
        ACDC, pairs=5, duration=duration, mtu=mtu, seed=seed,
        policy=_policy_for([b / 4.0 for b in combo]), rtt_probe=False))
        for combo in combos]


def reduce(results: List[dict], combos: Sequence[Sequence[int]],
           **_) -> List[dict]:
    """Per-flow throughput for every beta combination of the figure."""
    rows: List[dict] = []
    for combo, result in zip(combos, results):
        betas = [b / 4.0 for b in combo]
        gbps = [t / 1e9 for t in result["tputs_bps"]]
        # Within-class fairness: flows sharing a beta should match.
        by_beta: Dict[float, List[float]] = {}
        for beta, tput in zip(betas, gbps):
            by_beta.setdefault(beta, []).append(tput)
        class_fair = {
            beta: jain_index(v) for beta, v in by_beta.items() if len(v) > 1
        }
        class_means = {beta: sum(v) / len(v) for beta, v in by_beta.items()}
        ordered = sorted(class_means.items())
        monotonic = all(a[1] <= b[1] * 1.10 for a, b in zip(ordered, ordered[1:]))
        rows.append({
            "combo": "/".join(str(c) for c in combo) + "/4",
            "betas": betas,
            "tput_gbps": gbps,
            "class_means_gbps": class_means,
            "within_class_fairness": class_fair,
            "monotonic_in_beta": monotonic,
        })
    return rows


run = Experiment(cells, reduce, {"combos": BETA_COMBOS, "duration": 1.0,
                                 "mtu": 9000})
