"""Game day: every robustness mechanism exercised in one run.

One seeded service run composes the stack's failure handling end to
end — fault injectors on a host's wire, an adversarial tenant ignoring
RWND, the runtime invariant sanitizer armed, guards attached — while
the control plane hot-reloads guard thresholds, clamps one host's
RWND, rejects a malformed command, and finally pulls the kill switch
back to the boot configuration.  The assertion
is not a performance number: it is that the composed system *completes
cleanly* (no sanitizer violation, no wedged flows, no partial command
application) and that the whole ordeal is deterministic (the trace
signature is stable across serial / pool / replay).

Each seed is one cell on the experiment runtime: it arms the whole
sanitizer, runs the service through the schedule and returns the run
result with its trace signature.  A probe that fires raises
:class:`~repro.analysis.sanitize.InvariantViolation` out of the sweep,
from a pool worker as from the serial loop.
"""

from __future__ import annotations

from typing import List

from ..analysis import sanitize
from ..runtime import Experiment, RunSpec

#: Mild but non-trivial chaos: every injector type at 0.5% marginal
#: probability on the first host's wire.
FAULT_INTENSITY = 0.005


def gameday_schedule(epochs: int) -> List[dict]:
    """Hot guard reload, an RWND clamp the kill switch later reverts, a
    malformed command (must be rejected, not partially applied), and the
    kill switch."""
    return [
        {"epoch": 0, "op": "set_guard",
         "params": {"suspect_violation_rate": 0.2, "clean_windows": 4}},
        {"epoch": 1, "op": "set_policy", "hosts": ["h2"],
         "policy": {"max_rwnd": 1460}},
        {"epoch": 1, "op": "set_policy",
         "policy": {"algorithm": "warp-speed"}},      # must be rejected
        {"epoch": max(1, epochs - 2), "op": "kill_switch"},
    ]


def gameday_cell(seed: int, epochs: int = 6, n_hosts: int = 6) -> dict:
    """One full game-day service run (plain-JSON kwargs for the pool)."""
    from ..control.service import Service, ServiceConfig

    config = ServiceConfig(seed=seed, n_hosts=n_hosts, guard=True,
                           fault_intensity=FAULT_INTENSITY,
                           adversarial_hosts=1)
    # The whole sanitizer, not only its vSwitch probes: switch-port byte
    # conservation and the engine's clock tripwire arm at construction.
    armed = sanitize.is_enabled()
    sanitize.enable(True)
    sanitize.set_run_seed(seed)
    try:
        result = Service(config, gameday_schedule(epochs)).run(epochs)
    finally:
        sanitize.set_run_seed(None)
        sanitize.enable(armed)
    statuses = [c["status"] for c in result["commands"]]
    return {
        "result": result,
        "commands_applied": statuses.count("applied"),
        "commands_rejected": statuses.count("rejected"),
        "signature": result["signature"],
    }


def cells(seed: int, epochs: int = 6, n_hosts: int = 6) -> List[RunSpec]:
    return [RunSpec(f"{__name__}:gameday_cell",
                    {"seed": seed, "epochs": epochs, "n_hosts": n_hosts})]


run = Experiment(cells, lambda results, seed, **_: {"seed": seed,
                                                    **results[0]},
                 quick={"epochs": 4, "n_hosts": 4})
