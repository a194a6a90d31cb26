"""Congestion-window enforcement via the receive window (§3.3).

TCP's flow control is repurposed: the vSwitch computes a congestion window
and writes it into the RWND field of ACKs headed for the VM, so an
unmodified stack obeys ``min(CWND, RWND)`` by construction.  Two rules
from the paper:

* the field is only overwritten when the computed window is *smaller*
  than the original advertisement (TCP semantics preserved — never lie
  upward about buffer space);
* the rewrite must honour the window scale the advertising peer
  negotiated, which the datapath snoops from the handshake.

Flows that ignore RWND can be policed: data beyond
``snd_una + window + slack`` is dropped in the vSwitch, which removes any
incentive to cheat.  The module can also fabricate window updates and
duplicate ACKs (the flexibility §3.3 describes).
"""

from __future__ import annotations

from ..net.packet import Packet, SEQ_HALF, SEQ_MASK, encode_window

#: The policer's grace past the encoded window, in segments.
POLICING_SLACK_SEGMENTS = 2


class WindowEnforcer:
    """Rewrites RWND on ACKs delivered to the VM."""

    def __init__(self) -> None:
        self.rewrites = 0
        self.passes = 0   # ACKs whose original RWND was already tighter

    def enforce(self, ack: Packet, window_bytes: int, peer_wscale: int) -> bool:
        """Overwrite the ACK's window if ours is smaller; report whether
        the header changed."""
        if window_bytes >= ack.rwnd_field << peer_wscale:
            self.passes += 1
            return False
        ack.rwnd_field = encode_window(window_bytes, peer_wscale)
        self.rewrites += 1
        return True

    # ------------------------------------------------------------------
    # Fabricated control packets (§3.3 "surprising amount of flexibility")
    # ------------------------------------------------------------------
    @staticmethod
    def make_window_update(template_key: tuple, ack_seq: int,
                           window_bytes: int, peer_wscale: int) -> Packet:
        """A pure window-update ACK (no data, no feedback) for the VM."""
        src, sport, dst, dport = template_key
        pkt = Packet(src=src, sport=sport, dst=dst, dport=dport,
                     ack=True, ack_seq=ack_seq)
        pkt.set_advertised_window(window_bytes, peer_wscale)
        return pkt


def encoded_window_bytes(window_bytes: int, wscale: int) -> int:
    """The window the VM actually sees after 16-bit/wscale encoding.

    Mirrors :meth:`Packet.set_advertised_window`: the field is rounded
    *up* to the next scale unit (never a downward lie), then clamped to
    the 16-bit ceiling.  A conforming stack is bound by this value, not
    by the raw computed window — the policer must use the same edge.
    """
    return encode_window(window_bytes, wscale) << wscale


class Policer:
    """Drops egress data a non-conforming stack sends beyond the window."""

    def __init__(self) -> None:
        self.drops = 0

    def allow(self, pkt: Packet, snd_una: int, window_bytes: int, mss: int,
              wscale: int = 0) -> bool:
        """True if the data packet fits within the enforced window.

        The slack absorbs the legitimate cases where a conforming stack
        momentarily exceeds the window (window shrinkage racing packets
        already in the stack); independent of slack, the budget uses the
        *encoded* window — enforcement rounds the 16-bit field up to the
        next ``wscale`` unit, so a stack honouring the advertisement may
        legitimately sit up to ``2**wscale - 1`` bytes past the raw
        computed window.  The slack also admits a zero window's probe
        (dropping probes would deadlock a conforming zero-window flow).

        Sequence space is circular: the segment's distance ahead of
        ``snd_una`` is taken mod 2^32, the budget's worth is in-window,
        and the back half of the space counts as retransmission territory
        — so the check survives flows that wrap 2^32 mid-transfer.
        """
        budget = (encoded_window_bytes(window_bytes, wscale)
                  + POLICING_SLACK_SEGMENTS * mss)
        ahead = (pkt.end_seq - snd_una) & SEQ_MASK
        if ahead <= budget or ahead >= budget + SEQ_HALF:
            return True
        self.drops += 1
        return False
