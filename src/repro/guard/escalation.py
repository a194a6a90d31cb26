"""Graduated enforcement responses (tentpole part 2).

The escalation ladder maps conformance evidence to increasingly blunt
instruments, so a conforming flow pays nothing, a briefly-misbehaving
flow is corrected, and a persistent cheater is contained:

========  ============  ==================================================
 level     state         response
========  ============  ==================================================
 0         CONFORMING    monitor only
 1         SUSPECT       slack-free policing (drop bytes beyond the
                         *encoded* enforced window, zero grace)
 2         VIOLATOR      hard RWND clamp to a penalty window, installed
                         both on the live entry and as a PolicyEngine
                         rule so mid-flow resurrections inherit it
 3         VIOLATOR      token-bucket rate quarantine on top of level 2
========  ============  ==================================================

De-escalation is hysteretic: a flow steps down one level only after
``clean_windows`` consecutive clean conformance windows *and* a decay
deadline that backs off exponentially with the level, jittered from the
flow's seeded RNG stream — deterministic for a fixed seed, uncorrelated
across flows, and immune to a cheater timing its bursts to the decay.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.policy import PolicyEngine
from .config import GuardConfig
from .monitor import FlowConformance, state_for_level

#: Highest escalation level (token-bucket quarantine).
MAX_LEVEL = 3
#: +/- fractional jitter on decay timers (``_arm_decay``), drawn from
#: the flow's seeded stream (deterministic per seed, uncorrelated
#: across flows).
DECAY_JITTER = 0.25
#: Hard RWND clamp applied at the VIOLATOR level (``penalty_wnd``), in
#: segments.
PENALTY_WND_SEGMENTS = 2
#: Token-bucket rate and burst for quarantined flows (``_apply``).
QUARANTINE_RATE_BPS = 50e6
QUARANTINE_BURST_BYTES = 8 * 1460


class TokenBucket:
    """Byte-granular token bucket for level-3 quarantine."""

    def __init__(self, rate_bps: float, burst_bytes: int, now: float):
        self.rate_bytes = rate_bps / 8.0
        self.capacity = float(burst_bytes)
        self.tokens = float(burst_bytes)
        self.last = now

    def consume(self, nbytes: int, now: float) -> bool:
        self.tokens = min(self.capacity,
                          self.tokens + (now - self.last) * self.rate_bytes)
        self.last = now
        if nbytes <= self.tokens:
            self.tokens -= nbytes
            return True
        return False


class EscalationEngine:
    """Applies and reverses enforcement levels on flow entries."""

    def __init__(self, config: GuardConfig, mss: int,
                 policy_engine: PolicyEngine, notify):
        self.config = config
        self.mss = mss
        self.policy_engine = policy_engine
        #: callback(type, entry, **fields) into the Guard's event plumbing.
        self.notify = notify

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def escalate(self, entry, fc: FlowConformance, floor: int, now: float,
                 reason: str) -> None:
        """One step up, at least to ``floor`` (1 = suspect evidence,
        2 = violator evidence)."""
        new_level = min(MAX_LEVEL, max(floor, fc.level + 1))
        fc.clean_streak = 0
        self._arm_decay(fc, new_level, now)
        if new_level == fc.level:
            return
        old = fc.level
        self._apply(entry, fc, new_level, now)
        self.notify("guard.escalate", entry, level_from=old,
                    level_to=new_level, reason=reason, state=fc.state)

    def note_clean_window(self, entry, fc: FlowConformance,
                          now: float) -> None:
        """Hysteretic decay: one level down per sustained clean stretch."""
        fc.clean_streak += 1
        if (fc.level > 0 and fc.clean_streak >= self.config.clean_windows
                and now >= fc.decay_deadline):
            old = fc.level
            self._apply(entry, fc, fc.level - 1, now)
            fc.clean_streak = 0
            self._arm_decay(fc, fc.level, now)
            self.notify("guard.deescalate", entry, level_from=old,
                        level_to=fc.level, state=fc.state)

    def _arm_decay(self, fc: FlowConformance, level: int, now: float) -> None:
        if level <= 0:
            fc.decay_deadline = now
            return
        jitter = fc.rng.uniform(1.0 - DECAY_JITTER, 1.0 + DECAY_JITTER)
        fc.decay_deadline = (
            now + self.config.decay_base_s * (2.0 ** (level - 1)) * jitter)

    # ------------------------------------------------------------------
    # Level side effects
    # ------------------------------------------------------------------
    def _apply(self, entry, fc: FlowConformance, new_level: int,
               now: float) -> None:
        old = fc.level
        if new_level > old:
            if old < 2 <= new_level:
                self._impose_penalty(entry, fc)
            if old < 3 <= new_level:
                fc.bucket = TokenBucket(QUARANTINE_RATE_BPS,
                                        QUARANTINE_BURST_BYTES, now)
        else:
            if new_level < 3 <= old:
                fc.bucket = None
            if new_level < 2 <= old:
                self._lift_penalty(entry, fc)
        fc.level = new_level
        fc.state = state_for_level(new_level)

    @property
    def penalty_wnd(self) -> int:
        return PENALTY_WND_SEGMENTS * self.mss

    def _impose_penalty(self, entry, fc: FlowConformance) -> None:
        """Hard RWND clamp via the vSwitch CC's own cap, plus a policy rule
        so a resurrected entry (vSwitch restart) starts clamped too."""
        penalty = self.penalty_wnd
        fc.saved_max_wnd = entry.vswitch_cc.max_wnd
        entry.vswitch_cc.max_wnd = penalty
        entry.vswitch_cc.wnd = min(entry.vswitch_cc.wnd, float(penalty))
        entry.enforced_wnd = min(entry.enforced_wnd,
                                 entry.vswitch_cc.window_bytes)
        clamp = (penalty if entry.policy.max_rwnd is None
                 else min(penalty, entry.policy.max_rwnd))
        matcher = PolicyEngine.match_flow(entry.key)
        self.policy_engine.insert_rule(
            matcher, replace(entry.policy, max_rwnd=clamp))
        fc.penalty_rule = matcher

    def _lift_penalty(self, entry, fc: FlowConformance) -> None:
        if fc.saved_max_wnd is not None:
            entry.vswitch_cc.max_wnd = fc.saved_max_wnd
            fc.saved_max_wnd = None
        if fc.penalty_rule is not None:
            self.policy_engine.remove_rule(fc.penalty_rule)
            fc.penalty_rule = None
