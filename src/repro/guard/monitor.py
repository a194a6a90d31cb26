"""Per-flow conformance monitoring (tentpole part 1).

AC/DC's premise is that the vSwitch, not the guest, runs congestion
control — which only holds if the guest actually obeys the RWND the
vSwitch advertises and the feedback channel stays intact.  The monitor
watches each enforced flow for the four tenant misbehaviors the paper's
threat model leaves open:

* **RWND overruns** — data sent beyond the enforced window (the
  ``ignore_rwnd`` cheater of §5.4), measured per conformance window of
  egress data packets as a violation *rate*;
* **ECN bleaching** — the feedback channel reports bytes but never a
  single mark while the flow keeps suffering inferred losses (a receiver
  or middlebox clearing CE before the counters see it);
* **ACK division** — many ACKs each covering a small fraction of an MSS,
  inflating byte-counted window growth;
* **feedback loss** — acked bytes accumulate with no PACK/FACK report at
  all (option-stripping middlebox), which is handled by *degrading* the
  flow to local-signal-only CC rather than punishing it.

States classify as ``CONFORMING`` → ``SUSPECT`` → ``VIOLATOR``; the
:class:`~repro.guard.escalation.EscalationEngine` maps state changes to
enforcement levels.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..net.packet import SEQ_HALF, SEQ_MASK, seq_lt
from .config import VIOLATOR_VIOLATION_RATE, GuardConfig

#: Conformance states, in escalation order.
CONFORMING = "conforming"
SUSPECT = "suspect"
VIOLATOR = "violator"

#: Window grades emitted when a conformance window closes.
CLEAN = "clean"

#: Anomaly kinds raised by the ACK-side monitor.
ANOMALY_BLEACH = "ecn_bleach"
ANOMALY_ACK_DIVISION = "ack_division"
ANOMALY_FEEDBACK_LOSS = "feedback_loss"

#: Egress data packets per conformance window (``close_window``) and
#: ACKs per ACK-division window (``observe_ack``): rate denominators.
WINDOW_PACKETS = 32
#: Grace segments before an egress overrun counts as a violation
#: (``observe_egress``; mirrors the policer's legitimate-excess cases).
SLACK_SEGMENTS = 2
#: Newly-acked bytes without a single PACK/FACK report before the flow
#: is declared feedback-dead (``observe_ack``; option stripping, §3.2
#: fallback).
FEEDBACK_LOSS_BYTES = 256 * 1024
#: An ACK acknowledging fewer than this fraction of an MSS is a division
#: fragment, and this fragment rate over an ACK window raises the
#: anomaly (``observe_ack``; ACK-division stacks).
ACK_DIVISION_FRACTION = 0.25
ACK_DIVISION_RATE = 0.5
#: Inferred loss events with zero marked feedback bytes before the
#: receiver is suspected of bleaching ECN (``_note_zero_mark_loss``).
BLEACH_LOSS_EVENTS = 3


def state_for_level(level: int) -> str:
    if level <= 0:
        return CONFORMING
    if level == 1:
        return SUSPECT
    return VIOLATOR


class FlowConformance:
    """Guard-side per-flow state, stored at ``FlowEntry.guard_state``."""

    __slots__ = (
        "rng", "level", "state",
        # egress conformance window
        "window_packets", "window_violations", "clean_streak",
        "total_violations", "decay_deadline", "advertised_edge",
        # ACK-side signals
        "acked_since_feedback", "feedback_total", "marked_total",
        "loss_zero_mark",
        "ack_count", "ack_fragments", "fallback_active",
        # escalation artifacts
        "bucket", "saved_max_wnd", "penalty_rule",
    )

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.level = 0
        self.state = CONFORMING
        self.window_packets = 0
        self.window_violations = 0
        self.clean_streak = 0
        self.total_violations = 0
        self.decay_deadline = 0.0
        #: Serial-arithmetic max of (ack_seq + guest-visible window) over
        #: every advertisement the VM actually received; None until the
        #: first post-handshake advertisement.
        self.advertised_edge: Optional[int] = None
        self.acked_since_feedback = 0
        self.feedback_total = 0
        self.marked_total = 0
        self.loss_zero_mark = 0
        self.ack_count = 0
        self.ack_fragments = 0
        self.fallback_active = False
        self.bucket = None
        self.saved_max_wnd: Optional[int] = None
        self.penalty_rule = None


class ConformanceMonitor:
    """Classifies flows from datapath observations; no enforcement here."""

    def __init__(self, config: GuardConfig, mss: int):
        self.config = config
        self.mss = mss

    # ------------------------------------------------------------------
    # Egress data
    # ------------------------------------------------------------------
    def observe_egress(self, fc: FlowConformance, entry,
                       pkt) -> Tuple[bool, int]:
        """Account one egress data packet.

        The conformance invariant is exact, not heuristic: a conforming
        stack never sends past the highest window edge (``ack_seq`` +
        guest-visible window) the vSwitch has ever let it see — tracked
        in ``fc.advertised_edge`` by :meth:`note_advertisement`.  The
        current ``enforced_wnd`` would be wrong here: data legitimately
        in flight when the window shrinks exceeds it by up to the
        previous advertisement for an RTT or more.

        Returns ``(monitored_violation, overrun_bytes)``:
        *monitored_violation* is the slack-tolerant signal that feeds the
        violation rate; *overrun_bytes* is the zero-grace distance past
        the advertised edge (what level-1 slack-free policing drops).
        """
        edge = fc.advertised_edge
        if edge is None:
            # No post-handshake advertisement yet (first RTT of the flow,
            # or a freshly resurrected entry): nothing to hold the guest
            # against.  One RTT of blindness, by design.
            return False, 0
        over = (pkt.end_seq - edge) & SEQ_MASK
        if over == 0 or over >= SEQ_HALF:
            # At or behind the advertised edge (retransmissions included).
            fc.window_packets += 1
            return False, 0
        monitored = over > SLACK_SEGMENTS * self.mss
        fc.window_packets += 1
        if monitored:
            fc.window_violations += 1
            fc.total_violations += 1
        return monitored, over

    @staticmethod
    def note_advertisement(fc: FlowConformance, ack_seq: int,
                           window_bytes: int) -> None:
        """Advance the advertised-edge high-water mark (serial max)."""
        edge = (ack_seq + window_bytes) & SEQ_MASK
        if fc.advertised_edge is None or seq_lt(fc.advertised_edge, edge):
            fc.advertised_edge = edge

    def close_window(self, fc: FlowConformance) -> Optional[str]:
        """Grade and reset the conformance window once it is full.

        Returns ``None`` (window not full yet), :data:`CLEAN`,
        :data:`SUSPECT` or :data:`VIOLATOR`.
        """
        if fc.window_packets < WINDOW_PACKETS:
            return None
        rate = fc.window_violations / fc.window_packets
        fc.window_packets = 0
        fc.window_violations = 0
        if rate >= VIOLATOR_VIOLATION_RATE:
            return VIOLATOR
        if rate >= self.config.suspect_violation_rate:
            return SUSPECT
        return CLEAN

    # ------------------------------------------------------------------
    # Ingress ACKs
    # ------------------------------------------------------------------
    def observe_ack(self, fc: FlowConformance, verdict, total_delta: int,
                    marked_delta: int) -> List[str]:
        """Account one ACK's worth of feedback; returns raised anomalies."""
        anomalies: List[str] = []
        fc.feedback_total += total_delta
        fc.marked_total += marked_delta
        if total_delta > 0:
            fc.acked_since_feedback = 0
        elif verdict.newly_acked > 0:
            fc.acked_since_feedback += verdict.newly_acked
            if (not fc.fallback_active
                    and fc.acked_since_feedback > FEEDBACK_LOSS_BYTES):
                anomalies.append(ANOMALY_FEEDBACK_LOSS)
        if verdict.loss_detected and self._note_zero_mark_loss(fc):
            anomalies.append(ANOMALY_BLEACH)
        # ACK division: a run of ACKs each covering a sliver of an MSS.
        if verdict.newly_acked > 0:
            fc.ack_count += 1
            if verdict.newly_acked < self.mss * ACK_DIVISION_FRACTION:
                fc.ack_fragments += 1
            if fc.ack_count >= WINDOW_PACKETS:
                if fc.ack_fragments / fc.ack_count >= ACK_DIVISION_RATE:
                    anomalies.append(ANOMALY_ACK_DIVISION)
                fc.ack_count = 0
                fc.ack_fragments = 0
        return anomalies

    def observe_timeout(self, fc: FlowConformance) -> List[str]:
        """Account an inferred RTO (§3.1 timeout inference).

        An RTO is the strongest congestion-loss signal the vSwitch has,
        and it never rides an ACK — a flow whose marks are bleached
        builds a standing queue, inflates its RTT, and loses in bursts
        that surface here rather than through dupack inference.
        """
        return [ANOMALY_BLEACH] if self._note_zero_mark_loss(fc) else []

    def _note_zero_mark_loss(self, fc: FlowConformance) -> bool:
        """ECN bleaching: repeated congestion losses while a feedback
        channel that demonstrably works (bytes reported) has never
        reported a single marked byte.  A channel reporting nothing at
        all is the feedback-*loss* case, not bleaching."""
        if fc.feedback_total == 0 or fc.marked_total > 0:
            return False
        fc.loss_zero_mark += 1
        if fc.loss_zero_mark >= BLEACH_LOSS_EVENTS:
            fc.loss_zero_mark = 0  # re-arm: persistence keeps escalating
            return True
        return False
