"""The Guard facade: wires monitoring, escalation, fallback and the
watchdog into one object that is a tap of one
:class:`~repro.core.acdc.AcdcVswitch` (``AcdcVswitch.HOOKS``).

Hook contract — the guard observes at four hooks, and acts only through
its one verdict, the vSwitch's policy engine and the entry's CC:

* :meth:`on_egress_data` sees every enforced, non-shed egress data
  packet after conntrack/marking and *before* the config policer; it is
  the datapath's only verdict: ``False`` drops the packet (slack-free
  policing at level ≥ 1, token-bucket quarantine at level 3).
* :meth:`on_ack_signals` sees every enforced, non-shed ACK's conntrack
  verdict and feedback deltas once its window is computed; it never
  consumes the ACK, only updates conformance state, may escalate
  (penalty clamp: a policy rule plus the entry CC's cap) and may swap
  the flow to the feedback-loss fallback CC.
* :meth:`on_advertised` tracks the window edge every advertisement —
  rewritten ACK or fabricated update — shows the VM.
* :meth:`on_timeout` feeds an inferred RTO of a non-shed flow to the
  bleach detector.

Each transition is one ``guard.*`` decision, named as in
:data:`~repro.obs.trace.EVENT_SCHEMAS`: appended once to
:attr:`Guard.events` as a ``(t, type, flow, sorted field pairs)`` row
(counts by type, determinism signatures, audit trail) and offered once
to the vSwitch's ``on_decision`` taps, among them the trace bus's
:class:`~repro.obs.context.VswitchObs` and the flight ring when they
are armed.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..core.vswitch_cc import make_vswitch_cc
from ..obs.trace import INFO, WARNING
from ..sim.rng import RngFactory
from .config import GuardConfig
from .escalation import EscalationEngine
from .monitor import (
    ANOMALY_ACK_DIVISION,
    ANOMALY_BLEACH,
    ANOMALY_FEEDBACK_LOSS,
    CLEAN,
    SUSPECT,
    VIOLATOR,
    ConformanceMonitor,
    FlowConformance,
)
from .watchdog import DatapathWatchdog

#: Enforcement actions and ladder climbs warrant attention; bookkeeping
#: transitions stay informational.
_WARN_TYPES = frozenset({
    "guard.escalate", "guard.police_drop", "guard.quarantine_drop",
    "guard.feedback_fallback", "guard.shed",
})


class Guard:
    """Adversarial-tenant protection for one AC/DC vSwitch."""

    def __init__(self, config: Optional[GuardConfig] = None,
                 events: Optional[list] = None):
        self.config = config if config is not None else GuardConfig()
        #: One ``(t, type, flow, sorted field pairs)`` row per transition.
        self.events: List[tuple] = events if events is not None else []
        self._rngs = RngFactory(self.config.seed)
        # Bound at attach() time.
        self.vswitch = None
        self.sim = None
        self.mss = 0
        self.monitor: Optional[ConformanceMonitor] = None
        self.escalation: Optional[EscalationEngine] = None
        self.watchdog: Optional[DatapathWatchdog] = None
        self.police_drops = 0
        self.quarantine_drops = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, vswitch) -> None:
        if self.vswitch is not None:
            raise RuntimeError("guard is already attached to a vSwitch")
        self.vswitch = vswitch
        self.sim = vswitch.sim
        self.mss = vswitch.mss
        self.monitor = ConformanceMonitor(self.config, self.mss)
        self.escalation = EscalationEngine(
            self.config, self.mss, vswitch.policy, self._notify)
        if self.config.max_flow_entries is not None:
            self.watchdog = DatapathWatchdog(self.config, vswitch,
                                             self._notify)
            self.watchdog.start()

    #: Fields :meth:`reconfigure` refuses to change live: the seed fixes
    #: the identity of the per-flow jitter streams (changing it mid-run
    #: would silently re-randomise decay timers), and whether a watchdog
    #: runs at all is decided by ``max_flow_entries`` at attach.
    IMMUTABLE_FIELDS = ("seed", "max_flow_entries")

    def check(self, **changes) -> None:
        """Validate a hot-reload without applying it.

        The candidate config is validated as a whole via
        ``dataclasses.replace``, which re-runs ``GuardConfig.__post_init__``
        against this guard's *current* values for the untouched fields.
        Raises ``ValueError`` on any problem; applies nothing.
        The control plane calls this on every target guard before
        applying to any (multi-host all-or-nothing).
        """
        names = {f.name for f in dataclasses.fields(self.config)}
        for name in changes:
            if name not in names:
                raise ValueError(f"unknown guard config field {name!r}")
            if name in self.IMMUTABLE_FIELDS:
                raise ValueError(
                    f"guard config field {name!r} cannot be changed live")
        dataclasses.replace(self.config, **changes)

    def reconfigure(self, **changes) -> None:
        """Hot-reload guard thresholds on the live, attached guard.

        :meth:`check` validates the whole candidate first; only then are
        the fields mutated **in place** on the shared config object, so
        the monitor and escalation components — which hold a reference
        and read ``self.config.X`` at use time — both see the update
        atomically.  An invalid or unknown field rejects the
        entire change (never partially applied).
        """
        self.check(**changes)
        for name, value in changes.items():
            setattr(self.config, name, value)

    def _notify(self, type_: str, entry, **fields) -> None:
        """Record one transition and offer it to the vSwitch's taps."""
        self.events.append((self.sim.now, type_, entry.key,
                            tuple(sorted(fields.items()))))
        severity = WARNING if type_ in _WARN_TYPES else INFO
        for tap in self.vswitch._on_decision:
            tap(type_, entry.key, severity, fields)

    def conformance(self, entry) -> FlowConformance:
        if entry.guard_state is None:
            entry.guard_state = FlowConformance(
                self._rngs.stream(f"guard:{entry.key}"))
        return entry.guard_state

    # ------------------------------------------------------------------
    # Datapath hooks
    # ------------------------------------------------------------------
    def on_egress_data(self, entry, pkt) -> bool:
        """Monitor + enforce one egress data packet; False = drop."""
        fc = self.conformance(entry)
        now = self.sim.now
        violation, strict_overrun = self.monitor.observe_egress(
            fc, entry, pkt)
        grade = self.monitor.close_window(fc)
        if grade == VIOLATOR:
            self.escalation.escalate(entry, fc, floor=2, now=now,
                                     reason="rwnd_violation_rate")
        elif grade == SUSPECT:
            self.escalation.escalate(entry, fc, floor=1, now=now,
                                     reason="rwnd_violation_rate")
        elif grade == CLEAN:
            self.escalation.note_clean_window(entry, fc, now)
        if fc.level >= 1 and strict_overrun > 0:
            # Slack-free policing: the grace the config policer extends to
            # conforming stacks is withdrawn from suspects.
            self.vswitch.ops.record("policing_check")
            self.police_drops += 1
            self._notify("guard.police_drop", entry,
                         overrun_bytes=strict_overrun, level=fc.level)
            return False
        if fc.level >= 3 and fc.bucket is not None:
            if not fc.bucket.consume(pkt.payload_len, now):
                self.quarantine_drops += 1
                self._notify("guard.quarantine_drop", entry, level=fc.level)
                return False
        return True

    def on_ack_signals(self, entry, pkt, verdict, total_delta: int,
                       marked_delta: int) -> None:
        """Feed ACK-side signals into the monitor; may trigger fallback."""
        fc = self.conformance(entry)
        now = self.sim.now
        for anomaly in self.monitor.observe_ack(fc, verdict, total_delta,
                                                marked_delta):
            if anomaly == ANOMALY_FEEDBACK_LOSS:
                self._feedback_fallback(entry, fc)
            elif anomaly == ANOMALY_BLEACH:
                # Bleaching defeats marking itself, so policing the RWND
                # is toothless — only the penalty clamp (level 2) caps
                # what the mark-blind vSwitch CC can grow.
                self.escalation.escalate(entry, fc, floor=2, now=now,
                                         reason=anomaly)
            elif anomaly == ANOMALY_ACK_DIVISION:
                self.escalation.escalate(entry, fc, floor=1, now=now,
                                         reason=anomaly)

    def on_timeout(self, entry, wnd: int) -> None:
        """Inferred-RTO hook: a congestion-loss signal that never rides
        an ACK, fed to the bleach detector."""
        fc = self.conformance(entry)
        for anomaly in self.monitor.observe_timeout(fc):
            self.escalation.escalate(entry, fc, floor=2, now=self.sim.now,
                                     reason=anomaly)

    def on_advertised(self, entry, pkt, wnd: int, rewritten) -> None:
        """Track the window edge the VM is about to see: the ACK as the
        enforcer left it, or a fabricated update/dupack (§3.3)."""
        self.monitor.note_advertisement(
            self.conformance(entry), pkt.ack_seq,
            pkt.advertised_window(entry.peer_wscale))

    # ------------------------------------------------------------------
    # Feedback-loss fallback (graceful degradation, not punishment)
    # ------------------------------------------------------------------
    def _feedback_fallback(self, entry, fc: FlowConformance) -> None:
        """Degrade a feedback-dead flow to local-signal-only CC.

        With PACK/FACK options stripped in transit, DCTCP never sees a
        marked byte and would grow its window into standing congestion
        forever.  NewReno driven purely by conntrack's local signals
        (dupack-inferred loss, inactivity timeouts) needs no feedback
        channel, so the flow keeps being enforced — just less precisely.
        The swap is one-way: a channel that drops options once is not
        trusted again for this flow's lifetime.
        """
        old = entry.vswitch_cc
        cc = make_vswitch_cc("reno", mss=self.mss, beta=old.beta,
                             min_wnd_bytes=old.min_wnd,
                             max_wnd_bytes=old.max_wnd)
        # Start from the current operating point, not a fresh slow start.
        cc.wnd = max(float(cc.min_wnd), min(old.wnd, float(cc.max_wnd)))
        cc.ssthresh = cc.wnd
        entry.vswitch_cc = cc
        entry.enforced_wnd = min(entry.enforced_wnd, cc.window_bytes)
        fc.fallback_active = True
        fc.acked_since_feedback = 0
        self.fallbacks += 1
        self._notify("guard.feedback_fallback", entry,
                     from_algorithm=old.name, to_algorithm=cc.name)
