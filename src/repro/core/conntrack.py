"""Congestion-control state inference from observed packets (§3.1).

The vSwitch cannot ask the VM for its TCP state, so it rebuilds the
sender-side variables of Fig. 4 purely by watching traffic:

* ``snd_nxt`` advances when a data packet from the VM carries a sequence
  number beyond the current value;
* ``snd_una`` advances when an ACK from the network acknowledges new data;
* an ACK with ``ack_seq <= snd_una`` and no payload bumps a duplicate-ACK
  counter (three of them signal loss, as in the host stack);
* a timeout is *inferred* when ``snd_una < snd_nxt`` and an inactivity
  timer fires (the timer itself lives in the AC/DC datapath, which calls
  :meth:`infer_timeout`).

State can also be rebuilt **mid-flow**: when the first packet the tracker
sees is a data segment or an ACK (flow entry lost to a vSwitch restart or
VM migration, or the flow predates this vSwitch), the sequence space is
seeded from that packet instead of a SYN.

All sequence comparisons use RFC 1982-style serial arithmetic over the
32-bit space (:mod:`repro.net.packet`), so tracking survives flows that
wrap past 2^32 bytes.  The per-packet methods spell it out in place:
``0 < (a - b) & SEQ_MASK < SEQ_HALF`` is :func:`seq_gt` without its frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.packet import Packet, SEQ_HALF, SEQ_MASK, seq_add, seq_gt

DUPACK_THRESHOLD = 3


@dataclass
class AckVerdict:
    """What one incoming ACK meant for the tracked flow."""

    newly_acked: int = 0        # bytes newly acknowledged
    is_dupack: bool = False
    loss_detected: bool = False  # third duplicate ACK


class ConnTrack:
    """Sequence-space tracker for one flow direction (the sender role)."""

    def __init__(self) -> None:
        self.snd_una: Optional[int] = None
        self.snd_nxt: Optional[int] = None
        self.dupacks = 0
        self.last_ack_at: float = 0.0
        self.timeouts_inferred = 0
        # Decaying maximum of ACK inter-arrival gaps: a cheap RTT-scale
        # estimate so the inactivity timer adapts to long (WAN) paths
        # instead of firing once per round trip.
        self.ack_gap_estimate: float = 0.0
        self.syn_sent_at: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def initialized(self) -> bool:
        return self.snd_una is not None

    @property
    def bytes_outstanding(self) -> int:
        if self.snd_una is None or self.snd_nxt is None:
            return 0
        ahead = (self.snd_nxt - self.snd_una) & SEQ_MASK
        return ahead if ahead < SEQ_HALF else 0

    # ------------------------------------------------------------------
    def on_egress_syn(self, pkt: Packet, now: float = 0.0) -> None:
        """Seed the sequence space from the VM's SYN."""
        self.snd_una = pkt.seq & SEQ_MASK
        self.snd_nxt = seq_add(pkt.seq, 1)
        self.syn_sent_at = now

    def on_egress_data(self, pkt: Packet) -> None:
        """Advance ``snd_nxt`` for a data packet leaving the VM.

        An uninitialized tracker (mid-flow resurrection) seeds both ends
        of the window from this packet — the conservative choice: bytes
        below it count as acknowledged, so the inferred window restarts
        from zero outstanding rather than a stale estimate.
        """
        end_seq = (pkt.seq + pkt.payload_len) & SEQ_MASK
        if self.snd_nxt is None:
            self.snd_una = pkt.seq & SEQ_MASK
            self.snd_nxt = end_seq
        elif 0 < (end_seq - self.snd_nxt) & SEQ_MASK < SEQ_HALF:
            self.snd_nxt = end_seq

    def on_ingress_ack(self, pkt: Packet, now: float) -> AckVerdict:
        """Classify an ACK arriving from the network for this flow."""
        verdict = AckVerdict()
        if self.last_ack_at > 0.0:
            gap = now - self.last_ack_at
            self.ack_gap_estimate = max(gap, self.ack_gap_estimate * 0.99)
        elif self.syn_sent_at is not None and self.ack_gap_estimate == 0.0:
            # First ACK: the handshake RTT seeds the cadence estimate so
            # the inactivity timer starts on the right scale.
            self.ack_gap_estimate = max(now - self.syn_sent_at, 0.0)
        self.last_ack_at = now
        ack_seq = pkt.ack_seq & SEQ_MASK
        if self.snd_una is None:
            # Mid-flow resurrection from an ACK: everything at or below
            # the cumulative ACK is acknowledged by definition.
            self.snd_una = ack_seq
            if self.snd_nxt is None or seq_gt(ack_seq, self.snd_nxt):
                self.snd_nxt = ack_seq
            return verdict
        snd_nxt = self.snd_nxt
        acked = (ack_seq - self.snd_una) & SEQ_MASK
        if 0 < acked < SEQ_HALF:
            verdict.newly_acked = acked
            self.snd_una = ack_seq
            if (snd_nxt is not None
                    and 0 < (ack_seq - snd_nxt) & SEQ_MASK < SEQ_HALF):
                self.snd_nxt = ack_seq
            self.dupacks = 0
        elif (acked == 0 and pkt.payload_len == 0 and snd_nxt is not None
              and 0 < (snd_nxt - ack_seq) & SEQ_MASK < SEQ_HALF):
            self.dupacks += 1
            verdict.is_dupack = True
            if self.dupacks == DUPACK_THRESHOLD:
                verdict.loss_detected = True
        return verdict

    def infer_timeout(self) -> bool:
        """Called when the inactivity timer fires; True if it's a real RTO."""
        if self.bytes_outstanding > 0:
            self.timeouts_inferred += 1
            self.dupacks = 0
            return True
        return False
