"""Datapath watchdog: graceful degradation under overload (tentpole part 4).

A real vSwitch under flow-table pressure fails in the worst possible
way: it drops packets indiscriminately, which looks like congestion to
every flow at once.  The watchdog instead *sheds load deliberately*:
when the flow table outgrows its budget, the lowest-priority enforced
flows (smallest Equation-1 ``beta`` first) are switched to pass-through
— the datapath stops running CC/enforcement for them but keeps
collecting conntrack statistics — until the table falls below a
hysteresis fraction of the budget, at which point flows are re-admitted
highest-priority first.

Every shed/unshed decision is emitted as a structured event so operators
(and the determinism tests) can audit exactly which flows degraded when.
"""

from __future__ import annotations

from typing import List

from ..sim.timers import PeriodicTimer
from .config import GuardConfig

#: Sampling interval of the periodic budget check.
INTERVAL_S = 0.005
#: Fraction of the budget below which shed flows are re-admitted
#: (``tick``; hysteresis between shed and unshed).
RESUME_FRACTION = 0.7
#: Fraction of the candidates shed or re-admitted per tick (``_step``).
STEP_FRACTION = 0.25


class DatapathWatchdog:
    """Periodic flow-table budget check + deliberate load shedding for
    one vSwitch; ``config.max_flow_entries`` is the budget."""

    def __init__(self, config: GuardConfig, vswitch, notify):
        self.config = config
        self.vswitch = vswitch
        #: callback(type, entry, **fields) into the Guard's event plumbing.
        self.notify = notify
        self.ticks = 0
        self.sheds = 0
        self.unsheds = 0
        self._timer = PeriodicTimer(vswitch.sim, INTERVAL_S, self.tick)

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    def tick(self) -> None:
        self.ticks += 1
        budget = self.config.max_flow_entries
        entries = len(self.vswitch.table)
        if entries > budget:
            self._shed(entries)
        elif entries <= budget * RESUME_FRACTION:
            self._unshed(entries)

    # ------------------------------------------------------------------
    def _candidates(self, shed: bool) -> List[object]:
        """Enforced entries with the given shed status, sorted so the
        lowest priority (smallest beta, then key) comes first."""
        return sorted(
            (e for e in self.vswitch.table
             if e.policy.enforced and e.shed == shed),
            key=lambda e: (e.policy.beta, e.key))

    @staticmethod
    def _step(n_candidates: int) -> int:
        return max(1, int(n_candidates * STEP_FRACTION))

    def _shed(self, entries: int) -> None:
        candidates = self._candidates(shed=False)
        if not candidates:
            return
        for entry in candidates[:self._step(len(candidates))]:
            entry.shed = True
            self.sheds += 1
            self.notify("guard.shed", entry, reason="flow_table",
                        flow_entries=entries)

    def _unshed(self, entries: int) -> None:
        shed = self._candidates(shed=True)
        if not shed:
            return
        # Re-admit highest priority first.
        for entry in reversed(shed[-self._step(len(shed)):]):
            entry.shed = False
            self.unsheds += 1
            self.notify("guard.unshed", entry, flow_entries=entries)
