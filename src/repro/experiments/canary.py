"""Canary rollout experiment: a bad config is caught and rolled back.

The service-mode acceptance scenario (DESIGN.md §12.6): a pathological
RWND clamp (1 MSS — an order-of-magnitude FCT regression for the large
messages, but not a stall) is staged as a canary on a 25% host cohort.
The SLO evaluator must detect the p99 FCT regression and roll the
cohort back within two epochs, while the conforming cohort's p99 stays
within noise of a no-canary control run of the *same* seed and arrival
processes.

Each seed yields two cells — the canary run and the control run — that
fan through the experiment runtime; ``service_cell`` already takes
plain-JSON kwargs so the cells cache and pool cleanly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..runtime import Runtime, RunSpec, sweep

#: One MSS at MTU 1500: small enough to wreck large-message FCTs (a
#: 256 KB message needs ~180 window-limited round trips), large enough
#: that flows keep completing (no silly-window stall).
BAD_MAX_RWND = 1460

SERVICE_FN = "repro.control.service:service_cell"


def schedule_for(start_epoch: int, fraction: float = 0.25) -> List[dict]:
    """The canary command schedule under test."""
    return [{"epoch": start_epoch, "op": "canary_start",
             "policy": {"max_rwnd": BAD_MAX_RWND}, "fraction": fraction}]


def _specs(seed: int, epochs: int, n_hosts: int,
           start_epoch: int) -> List[RunSpec]:
    config = {"seed": seed, "n_hosts": n_hosts}
    return [
        RunSpec(SERVICE_FN, {"config": config,
                             "schedule": schedule_for(start_epoch),
                             "epochs": epochs}),
        RunSpec(SERVICE_FN, {"config": config, "schedule": [],
                             "epochs": epochs}),
    ]


def _summarise(canary_run: dict, control_run: dict) -> dict:
    rollout = canary_run["canary"]
    conforming = canary_run["fct"]["cohorts"].get("conforming")
    control_all = control_run["fct"]["cohorts"]["all"]
    # The control run has no cohort split, so the noise comparison is
    # per host (both runs share hosts and arrival processes).
    per_host_ratio = {}
    if conforming is not None:
        for addr in conforming["hosts"]:
            with_canary = canary_run["fct"]["per_host"][addr]["p99"]
            without = control_run["fct"]["per_host"][addr]["p99"]
            if with_canary is not None and without:
                per_host_ratio[addr] = with_canary / without
    return {
        "rolled_back": rollout["state"] == "rolled_back",
        "reason": rollout["reason"],
        "started_epoch": rollout["started_epoch"],
        "ended_epoch": rollout["ended_epoch"],
        "epochs_to_rollback": (
            None if rollout["ended_epoch"] is None
            else rollout["ended_epoch"] - rollout["started_epoch"]),
        "violations": rollout["violations"],
        "cohort": rollout["cohort"],
        "conforming_p99": None if conforming is None else conforming["p99"],
        "control_p99": control_all["p99"],
        "conforming_p99_ratio_per_host": per_host_ratio,
        "signature": canary_run["signature"],
        "control_signature": control_run["signature"],
    }


def run(seed: int = 0, quick: bool = False,
        seeds: Optional[Sequence[int]] = None,
        runtime: Optional[Runtime] = None) -> Dict[str, object]:
    """Canary-vs-control pair per seed; see :func:`_summarise`."""
    epochs = 5 if quick else 7
    n_hosts = 6 if quick else 8
    start_epoch = 1

    def merge(sd: int, cells: List[dict]) -> dict:
        canary_run, control_run = cells
        return {
            "seed": sd,
            "summary": _summarise(canary_run, control_run),
            "canary_run": canary_run,
            "control_run": control_run,
        }

    return sweep(runtime, seed, seeds,
                 lambda sd: _specs(sd, epochs, n_hosts, start_epoch), merge)
