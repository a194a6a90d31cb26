"""Datapath watchdog: graceful degradation under overload (tentpole part 4).

A real vSwitch under flow-table pressure or CPU overload fails in the
worst possible way: it drops packets indiscriminately, which looks like
congestion to every flow at once.  The watchdog instead *sheds load
deliberately*: when a per-packet operation budget or a flow-table size
budget is exceeded, the lowest-priority enforced flows (smallest
Equation-1 ``beta`` first) are switched to pass-through — the datapath
stops running CC/enforcement for them but keeps collecting conntrack
statistics — until the pressure falls below a hysteresis fraction of the
budget, at which point flows are re-admitted highest-priority first.

Every shed/unshed decision is emitted as a structured event so operators
(and the determinism tests) can audit exactly which flows degraded when.
"""

from __future__ import annotations

from typing import List

from ..sim.timers import PeriodicTimer
from .config import GuardConfig


class DatapathWatchdog:
    """Periodic budget check + deliberate load shedding for one vSwitch."""

    def __init__(self, config: GuardConfig, vswitch, notify):
        self.config = config
        self.vswitch = vswitch
        #: callback(type, entry, **fields) into the Guard's event plumbing.
        self.notify = notify
        self._last_ops = 0
        self._last_packets = 0
        self.ticks = 0
        self.sheds = 0
        self.unsheds = 0
        self._timer = PeriodicTimer(vswitch.sim, config.watchdog_interval_s,
                                    self.tick)

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    def _ops_per_packet(self) -> float:
        ops = self.vswitch.ops
        total = ops.total()
        packets = ops.packets_egress + ops.packets_ingress
        d_ops = total - self._last_ops
        d_pkts = packets - self._last_packets
        self._last_ops = total
        self._last_packets = packets
        return d_ops / d_pkts if d_pkts > 0 else 0.0

    def tick(self) -> None:
        self.ticks += 1
        cfg = self.config
        opp = self._ops_per_packet()
        entries = len(self.vswitch.table)
        table_over = (cfg.max_flow_entries is not None
                      and entries > cfg.max_flow_entries)
        ops_over = (cfg.max_ops_per_packet is not None
                    and opp > cfg.max_ops_per_packet)
        if table_over or ops_over:
            reason = "flow_table" if table_over else "ops_budget"
            self._shed(reason, opp, entries)
            return
        table_calm = (cfg.max_flow_entries is None
                      or entries <= cfg.max_flow_entries * cfg.resume_fraction)
        ops_calm = (cfg.max_ops_per_packet is None
                    or opp <= cfg.max_ops_per_packet * cfg.resume_fraction)
        if table_calm and ops_calm:
            self._unshed(opp, entries)

    # ------------------------------------------------------------------
    def _candidates(self, shed: bool) -> List[object]:
        """Enforced entries with the given shed status, sorted so the
        lowest priority (smallest beta, then key) comes first."""
        return sorted(
            (e for e in self.vswitch.table
             if e.policy.enforced and e.shed == shed),
            key=lambda e: (e.policy.beta, e.key))

    def _step(self, n_candidates: int) -> int:
        return max(1, int(n_candidates * self.config.shed_step_fraction))

    def _shed(self, reason: str, opp: float, entries: int) -> None:
        candidates = self._candidates(shed=False)
        if not candidates:
            return
        for entry in candidates[:self._step(len(candidates))]:
            entry.shed = True
            self.sheds += 1
            self.notify("guard.shed", entry, reason=reason,
                        ops_per_packet=round(opp, 2), flow_entries=entries)

    def _unshed(self, opp: float, entries: int) -> None:
        shed = self._candidates(shed=True)
        if not shed:
            return
        # Re-admit highest priority first.
        for entry in reversed(shed[-self._step(len(shed)):]):
            entry.shed = False
            self.unsheds += 1
            self.notify("guard.unshed", entry,
                        ops_per_packet=round(opp, 2), flow_entries=entries)
