"""Guest TCP connection: the VM's stack in the paper's architecture.

This is a from-scratch TCP with the mechanisms the evaluation exercises:

* three-way handshake with window-scale negotiation (AC/DC snoops it),
* cumulative ACKs + SACK (the testbed sets ``tcp_sack=1``, §5): duplicate
  ACK / SACK-threshold loss detection and scoreboard-driven recovery,
* RTO with exponential backoff and §5's RTOmin of 10 ms (:data:`MIN_RTO`,
  which also floors the vSwitch's timeout inference),
* flow control against the peer's advertised window — the hook AC/DC's
  enforcement module leans on (§3.3): the sender always respects
  ``min(CWND, RWND)``,
* RFC 3168 ECN negotiation and echo, plus DCTCP's per-ACK precise echo,
* TCP timestamps for RTT sampling (Vegas/Illinois need per-ACK RTTs),
* pluggable congestion control (``repro.tcp.cc``), a ``snd_cwnd_clamp``
  equivalent (``max_cwnd``), Linux's is-cwnd-limited growth gate, and
  optional per-flow pacing (models the rate-limited CUBIC of Fig. 2).

Payload bytes are synthetic: the model tracks byte *counts* and sequence
ranges, never buffers content.  Any byte range can therefore be resent
without remembering original segment boundaries.
"""

# repro-lint: disable-file=RL001 (guest stack: sequence numbers are unbounded Python ints in a linear space, never wrapped; only vSwitch-side code sees the 32-bit circular space)

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from ..sim.engine import Simulator
from ..sim.timers import Timer
from ..net.packet import ECN_CE, ECN_ECT0, SEQ_MASK, Packet, encode_window
from .cc import make_cc

if TYPE_CHECKING:  # pragma: no cover
    from ..net.host import Host

# Connection states (only the ones the evaluation needs).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"      # our FIN sent, waiting for its ACK
TIME_WAIT = "TIME_WAIT"    # both sides done

DEFAULT_RCV_BUF = 4 * 1024 * 1024   # Linux-ish default max receive buffer
DEFAULT_WSCALE = 9
INITIAL_WINDOW_SEGMENTS = 10        # RFC 6928, cited in §3.1
MIN_RTO = 0.010                     # §5: RTOmin = 10 ms
INITIAL_RTO = 0.100
MAX_RTO = 2.0
MAX_SACK_BLOCKS = 4


def _merge_interval(intervals: List[Tuple[int, int]], start: int, end: int) -> None:
    """Insert [start, end) into a sorted, disjoint interval list, merging."""
    merged = []
    for s, e in intervals:
        if e < start or s > end:
            merged.append((s, e))
        else:
            start, end = min(start, s), max(end, e)
    merged.append((start, end))
    merged.sort()
    intervals[:] = merged


class TcpConnection:
    """One endpoint of a TCP connection running inside the 'VM'."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        laddr: str,
        lport: int,
        raddr: str,
        rport: int,
        cc: str = "cubic",
        mss: int = 1460,
        ecn: bool = False,
        rcv_buf: int = DEFAULT_RCV_BUF,
        wscale: int = DEFAULT_WSCALE,
        max_cwnd: Optional[int] = None,
        pacing_rate_bps: Optional[float] = None,
        cc_kwargs: Optional[dict] = None,
        ignore_rwnd: bool = False,
        ack_division: int = 0,
    ):
        self.sim = sim
        self.host = host
        self.laddr, self.lport = laddr, lport
        self.raddr, self.rport = raddr, rport
        self.mss = mss
        self.state = CLOSED

        # --- sender state -------------------------------------------------
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INITIAL_WINDOW_SEGMENTS * mss
        self.ssthresh = 1 << 30
        self.max_cwnd = max_cwnd if max_cwnd is not None else (1 << 30)
        self.peer_rwnd = mss  # until the first window arrives
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = 0
        self.after_rto = False
        self.app_bytes_queued = 0     # bytes written but not yet sent
        self.unlimited_data = False   # iperf-style infinite source
        self.fin_pending = False
        self.fin_sent = False
        self.fin_acked = False
        # SACK scoreboard: disjoint sorted [start, end) above snd_una.
        self.sacked: List[Tuple[int, int]] = []
        self._retx_next = 0           # recovery retransmission cursor
        self._retx_pipe = 0           # post-RTO: retransmitted, unacked bytes

        # --- receiver state -------------------------------------------------
        self.irs = 0
        self.rcv_nxt = 0
        self.rcv_buf = rcv_buf
        self.my_wscale = wscale
        # The app drains instantly, so every packet advertises the whole
        # buffer: encoded (and range-checked) here, once, not per packet.
        self._rwnd_field = encode_window(rcv_buf, wscale)
        self.peer_wscale = 0
        self.ooo: List[Tuple[int, int]] = []   # merged [start, end) intervals
        self.fin_received = False
        self.bytes_delivered = 0

        # --- ECN -------------------------------------------------------------
        self.ecn_requested = ecn
        self.ecn_ok = False           # negotiated with the peer
        self.ece_latched = False      # classic receiver echo state
        self.ecn_reduce_point = 0     # once-per-window classic ECE reaction
        self._cwr_pending = False     # announce our reduction on next data

        # --- RTT / RTO ---------------------------------------------------------
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self.backoff = 0
        self.rto_timer = Timer(sim, self._on_rto)
        self.timeouts = 0
        self.fast_retransmits = 0
        self.retransmitted_bytes = 0

        self.ignore_rwnd = ignore_rwnd
        # Adversarial receiver model (see repro.guard): split cumulative
        # ACKs into this many sub-ACKs (Savage et al.'s ACK division; 0/1
        # = honest).  ECN bleaching is a wire fault (repro.faults.EcnBleach).
        if ack_division < 0:
            raise ValueError("ack_division must be >= 0")
        self.ack_division = ack_division

        # --- pacing (models the Fig. 2 per-flow rate limiter) -------------------
        self.pacing_rate_bps = pacing_rate_bps
        self._pace_until = 0.0
        self._pace_pending = False

        # --- stats & hooks --------------------------------------------------------
        self.bytes_acked_total = 0
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[int], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.window_probe: Optional[Callable[["TcpConnection"], None]] = None

        cc_kwargs = cc_kwargs or {}
        self.cc_name = cc
        self.cc = make_cc(cc, self, **cc_kwargs)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def bytes_in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def sacked_bytes(self) -> int:
        return sum(e - s for s, e in self.sacked)

    @property
    def pipe(self) -> int:
        """Conservative estimate of bytes actually in the network."""
        return max(self.bytes_in_flight - self.sacked_bytes, 0)

    @property
    def send_window(self) -> int:
        """The enforceable window: min(CWND, peer RWND).

        A non-conforming stack (``ignore_rwnd=True``, the cheater AC/DC's
        policer exists for, §3.3) disregards the advertised window.
        """
        if self.ignore_rwnd:
            return int(self.cwnd)
        return min(int(self.cwnd), self.peer_rwnd)

    @property
    def data_pending(self) -> bool:
        return self.unlimited_data or self.app_bytes_queued > 0

    def key(self) -> Tuple[str, int, str, int]:
        return (self.laddr, self.lport, self.raddr, self.rport)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = SYN_SENT
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self._send_syn()
        self._arm_rto()

    def _send_syn(self, ack: bool = False, tsecr: float = -1.0) -> None:
        syn = self._make_packet(seq=self.iss, syn=True, ack=ack)
        syn.wscale = self.my_wscale
        syn.tsecr = tsecr
        if ack:
            syn.ece = self.ecn_ok
        elif self.ecn_requested:
            syn.ece = True
            syn.cwr = True
        self._transmit(syn)

    def send(self, nbytes: int) -> None:
        """Queue application bytes for transmission."""
        if nbytes < 0:
            raise ValueError("cannot send a negative byte count")
        self.app_bytes_queued += nbytes
        self._try_send()

    def send_forever(self) -> None:
        """Switch to an unlimited (iperf-style) data source."""
        self.unlimited_data = True
        self._try_send()

    def close(self) -> None:
        """Half-close after all queued data is delivered."""
        self.fin_pending = True
        self._try_send()

    # ------------------------------------------------------------------
    # Packet construction / emission
    # ------------------------------------------------------------------
    def _make_packet(self, seq: int = 0, payload_len: int = 0, *,
                     syn: bool = False, fin: bool = False,
                     ack: bool = False) -> Packet:
        return Packet(
            src=self.laddr, sport=self.lport, dst=self.raddr, dport=self.rport,
            seq=seq, ack_seq=self.rcv_nxt if ack else 0,
            payload_len=payload_len, syn=syn, fin=fin, ack=ack,
            rwnd_field=self._rwnd_field, tsval=self.sim.now,
        )

    def _transmit(self, pkt: Packet) -> None:
        """Hand the packet to the host (which runs it through the vSwitch)."""
        if self.ecn_ok and pkt.payload_len > 0:
            pkt.ecn = ECN_ECT0
            if self._cwr_pending:
                pkt.cwr = True
                self._cwr_pending = False
        self.host.output(pkt)

    def _send_ack(self, tsecr: float, ece: Optional[bool] = None) -> None:
        ackpkt = self._make_packet(seq=self.snd_nxt, ack=True)
        ackpkt.tsecr = tsecr
        if ece is None:
            ece = self.ece_latched
        ackpkt.ece = bool(ece and self.ecn_ok)
        if self.ooo:
            ackpkt.sack_blocks = tuple(self.ooo[:MAX_SACK_BLOCKS])
        self._transmit(ackpkt)

    # ------------------------------------------------------------------
    # Sending data
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        if self.state not in (ESTABLISHED, FIN_WAIT):
            return
        if self.in_recovery:
            self._recovery_send()
        else:
            while self._send_one():
                pass
        if self.fin_pending:
            self._maybe_send_fin()

    def _send_one(self) -> bool:
        """Send one new segment if window, data, and pacing allow.

        Runs 1.5x per segment sent, so it reads the fields behind
        :attr:`data_pending`, :attr:`send_window` and
        :attr:`bytes_in_flight` itself instead of entering them.
        """
        unlimited = self.unlimited_data
        if not unlimited and self.app_bytes_queued <= 0:
            return False
        window = int(self.cwnd)
        if not self.ignore_rwnd and self.peer_rwnd < window:
            window = self.peer_rwnd
        snd_nxt = self.snd_nxt
        available = self.snd_una + window - snd_nxt
        if available <= 0:
            return False
        seg = self.mss if unlimited else min(self.mss, self.app_bytes_queued)
        if seg <= 0:
            return False
        if available < seg:
            # Sub-MSS usable window: only send a short segment when the
            # pipe is empty (silly-window avoidance, but no deadlock when
            # AC/DC enforces byte-granular windows below one MSS).
            if snd_nxt > self.snd_una:
                return False
            seg = available
        if self.pacing_rate_bps is not None and not self._pacing_gate(seg):
            return False
        pkt = self._make_packet(seq=snd_nxt, payload_len=seg, ack=True)
        self.snd_nxt = snd_nxt + seg
        if not unlimited:
            self.app_bytes_queued -= seg
        self._transmit(pkt)
        if self.rto_timer.expires_at is None:
            self._arm_rto()
        if self.window_probe is not None:
            self.window_probe(self)
        return True

    def _pacing_gate(self, seg_bytes: int) -> bool:
        """Token-style pacing (callers skip it for an unpaced flow);
        returns False and self-reschedules if early."""
        now = self.sim.now
        if self._pace_until > now + 1e-12:
            if not self._pace_pending:
                self._pace_pending = True
                self.sim.schedule_at(self._pace_until, self._pace_fire)
            return False
        start = max(self._pace_until, now)
        self._pace_until = start + seg_bytes * 8.0 / self.pacing_rate_bps
        return True

    def _pace_fire(self) -> None:
        self._pace_pending = False
        self._try_send()

    def _maybe_send_fin(self) -> None:
        if (self.fin_pending and not self.fin_sent
                and not self.data_pending):
            fin = self._make_packet(seq=self.snd_nxt, ack=True, fin=True)
            self.fin_sent = True
            self.snd_nxt += 1
            self.state = FIN_WAIT
            self._transmit(fin)
            if self.rto_timer.expires_at is None:
                self._arm_rto()

    # ------------------------------------------------------------------
    # Retransmission machinery (SACK scoreboard)
    # ------------------------------------------------------------------
    def _next_hole(self, from_seq: int) -> Optional[Tuple[int, int]]:
        """First presumed-lost [start, end) at or after ``from_seq``.

        In fast recovery a gap counts as lost only if SACKed data exists
        *above* it (RFC 6675's IsLost intuition) — un-SACKed bytes beyond
        the highest SACK block are merely in flight, and retransmitting
        them floods the receiver with duplicates.  After an RTO everything
        unacked below ``recovery_point`` is presumed lost.
        """
        if self.after_rto:
            limit = self.recovery_point
        elif self.sacked:
            limit = min(self.recovery_point, self.sacked[-1][0])
        else:
            # No SACK information: classic fast retransmit of one segment.
            limit = min(self.recovery_point, self.snd_una + self.mss)
        seq = max(from_seq, self.snd_una)
        while seq < limit:
            blocked = False
            for s, e in self.sacked:
                if s <= seq < e:
                    seq = e
                    blocked = True
                    break
                if s > seq:
                    return (seq, min(seq + self.mss, s, limit))
            if not blocked:
                return (seq, min(seq + self.mss, limit))
        return None

    def _retransmit_range(self, start: int, end: int) -> None:
        length = end - start
        if self.fin_sent and end == self.snd_nxt:
            length -= 1  # the FIN slot carries no payload
        if length > 0:
            pkt = self._make_packet(seq=start, payload_len=length, ack=True)
            self._transmit(pkt)
            self.retransmitted_bytes += length
        elif self.fin_sent and start == self.snd_nxt - 1:
            pkt = self._make_packet(seq=start, ack=True, fin=True)
            self._transmit(pkt)

    def _recovery_pipe(self) -> int:
        """In-network estimate during recovery.

        After an RTO everything unacked is presumed lost, so only bytes we
        have retransmitted since count; in fast recovery the conservative
        ``pipe`` (in flight minus SACKed) applies.
        """
        return self._retx_pipe if self.after_rto else self.pipe

    def _recovery_send(self) -> None:
        """RFC 6675-flavoured recovery: fill the pipe with retransmissions
        of scoreboard holes, then (fast recovery only) new data."""
        budget = self.send_window - self._recovery_pipe()
        while budget >= self.mss or (budget > 0 and self._recovery_pipe() == 0):
            hole = self._next_hole(self._retx_next)
            if hole is not None:
                start, end = hole
                self._retransmit_range(start, end)
                self._retx_next = end
                self._retx_pipe += end - start
                budget -= end - start
                continue
            # No holes left below recovery_point: forward-transmit.
            if self.after_rto or not self._send_new_in_recovery():
                break
            budget = self.send_window - self._recovery_pipe()
        if not self.rto_timer.armed and self.bytes_in_flight > 0:
            self._arm_rto()

    def _send_new_in_recovery(self) -> bool:
        if not self.data_pending:
            return False
        if self.snd_nxt - self.snd_una >= self.send_window + self.sacked_bytes:
            return False
        remaining = (1 << 62) if self.unlimited_data else self.app_bytes_queued
        seg = min(self.mss, remaining)
        if seg <= 0:
            return False
        pkt = self._make_packet(seq=self.snd_nxt, payload_len=seg, ack=True)
        self.snd_nxt += seg
        if not self.unlimited_data:
            self.app_bytes_queued -= seg
        self._transmit(pkt)
        return True

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        self.rto_timer.start(self.rto * (1 << self.backoff))

    def _on_rto(self) -> None:
        if self.state == CLOSED:
            return
        if self.state == SYN_SENT:
            self.timeouts += 1
            self.backoff = min(self.backoff + 1, 6)
            self._send_syn()
            self._arm_rto()
            return
        if self.bytes_in_flight == 0:
            return
        self.timeouts += 1
        self.cc.on_rto()
        self.ssthresh = self.cc.ssthresh_after_loss()
        self.cwnd = self.mss
        # RTO recovery reuses the scoreboard machinery: every non-SACKed
        # byte below recovery_point is presumed lost and refilled as the
        # (slow-starting) window allows.
        self.in_recovery = True
        self.after_rto = True
        self.recovery_point = self.snd_nxt
        self.dupacks = 0
        self._retx_next = self.snd_una
        self._retx_pipe = 0
        self.backoff = min(self.backoff + 1, 6)
        self._recovery_send()
        self._arm_rto()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def handle_packet(self, pkt: Packet) -> None:
        """Entry point from the host demux (post-vSwitch ingress)."""
        if pkt.rst:
            self._enter_closed()
            return
        if pkt.syn:
            self._handle_syn(pkt)
            return
        if self.state == CLOSED:
            return
        if self.state == SYN_RCVD and pkt.ack and pkt.ack_seq >= self.iss + 1:
            self._establish()
        if pkt.ack:
            self._handle_ack(pkt)
        if pkt.payload_len > 0:
            self._handle_data(pkt)
        if pkt.fin:
            self._handle_fin(pkt)

    # -- handshake -------------------------------------------------------
    def _handle_syn(self, pkt: Packet) -> None:
        if pkt.ack:  # SYN-ACK for our active open
            if self.state != SYN_SENT:
                return
            self.irs = pkt.seq
            self.rcv_nxt = pkt.seq + 1
            self.peer_wscale = pkt.wscale or 0
            self.peer_rwnd = pkt.advertised_window(self.peer_wscale)
            self.ecn_ok = self.ecn_requested and pkt.ece
            self.snd_una = pkt.ack_seq
            self.rto_timer.stop()
            self.backoff = 0
            # Seed the RTT estimator from the handshake, as Linux does.
            handshake_rtt = self._rtt_sample(pkt)
            if handshake_rtt is not None:
                self._update_rtt(handshake_rtt)
            self._establish()
            self._send_ack(tsecr=pkt.tsval)
            self._try_send()
        else:  # passive side receives SYN
            if self.state not in (CLOSED, SYN_RCVD):
                return
            self.irs = pkt.seq
            self.rcv_nxt = pkt.seq + 1
            self.peer_wscale = pkt.wscale or 0
            self.peer_rwnd = pkt.advertised_window(self.peer_wscale)
            self.ecn_ok = self.ecn_requested and pkt.ece and pkt.cwr
            self.state = SYN_RCVD
            self.snd_una = self.iss
            self.snd_nxt = self.iss + 1
            self._send_syn(ack=True, tsecr=pkt.tsval)
            self._arm_rto()

    def _establish(self) -> None:
        if self.state in (ESTABLISHED, FIN_WAIT, TIME_WAIT):
            return
        self.state = ESTABLISHED
        self.established_at = self.sim.now
        self.rto_timer.stop()
        self.backoff = 0
        if self.on_established is not None:
            self.on_established()

    # -- ACK processing ------------------------------------------------------
    def _update_scoreboard(self, pkt: Packet) -> int:
        """Merge the ACK's SACK blocks (the caller checked there are
        some); returns newly-SACKed byte count."""
        before = self.sacked_bytes
        for s, e in pkt.sack_blocks:
            if e > self.snd_una:
                _merge_interval(self.sacked, max(s, self.snd_una), e)
        return self.sacked_bytes - before

    def _prune_scoreboard(self) -> None:
        self.sacked = [(max(s, self.snd_una), e)
                       for s, e in self.sacked if e > self.snd_una]

    def _handle_ack(self, pkt: Packet) -> None:
        if self.state not in (ESTABLISHED, FIN_WAIT):
            return
        self.peer_rwnd = pkt.rwnd_field << self.peer_wscale
        newly_sacked = self._update_scoreboard(pkt) if pkt.sack_blocks else 0
        ack_seq = pkt.ack_seq
        if ack_seq > self.snd_una:
            self._handle_new_ack(pkt, ack_seq)
        elif (ack_seq == self.snd_una and pkt.payload_len == 0
              and not pkt.fin and self.snd_nxt > self.snd_una):
            self._handle_dupack(pkt, newly_sacked)
        self._try_send()
        if self.window_probe is not None:
            self.window_probe(self)

    def _rtt_sample(self, pkt: Packet) -> Optional[float]:
        if pkt.tsecr < 0:
            return None  # no timestamp echo on this packet
        sample = self.sim.now - pkt.tsecr
        return sample if sample >= 0 else None

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = max(MIN_RTO, min(self.srtt + 4 * self.rttvar, MAX_RTO))

    def _cwnd_limited(self, acked: int) -> bool:
        """Linux's is_cwnd_limited gate: only grow cwnd when cwnd (not the
        app or the peer's window) was the binding constraint.

        Mirrors tcp_is_cwnd_limited(): slow start keeps growing while
        cwnd < 2 * max_packets_out — so under AC/DC a VM whose RWND is the
        limiter parks its CWND near twice the enforced window (exactly the
        Fig. 10 picture) and AC/DC retains instant upward headroom.
        """
        used = self.snd_nxt - self.snd_una + acked
        if self.cwnd < self.ssthresh:
            return self.cwnd < 2 * used
        return used + self.mss >= self.cwnd

    def _handle_new_ack(self, pkt: Packet, ack_seq: int) -> None:
        acked = ack_seq - self.snd_una
        fin_ack = False
        if self.fin_sent and ack_seq >= self.snd_nxt:
            fin_ack = True
            acked -= 1  # the FIN's sequence slot carries no data
        self.snd_una = ack_seq
        if self.sacked:
            self._prune_scoreboard()
        self.bytes_acked_total += max(acked, 0)
        self.backoff = 0
        rtt = self._rtt_sample(pkt)
        if rtt is not None:
            self._update_rtt(rtt)
        # DCTCP-style per-ACK ECN accounting (no-op for other algorithms).
        self.cc.on_ack_ecn_info(max(acked, 0), pkt.ece)

        if self.in_recovery:
            self._retx_pipe = max(0, self._retx_pipe - max(acked, 0))
            if ack_seq >= self.recovery_point:
                self.in_recovery = False
                self.dupacks = 0
                if self.after_rto:
                    self.after_rto = False  # keep the slow-started cwnd
                else:
                    self.cwnd = self.ssthresh
            else:
                # Partial ACK: keep the retransmission cursor honest and
                # let _try_send (recovery path) continue filling holes.
                self._retx_next = max(self._retx_next, self.snd_una)
                if self.after_rto and self._cwnd_limited(acked):
                    # Post-timeout recovery slow-starts the refill rate.
                    self.cc.on_ack(max(acked, 0), rtt)
        else:
            self.dupacks = 0
            if pkt.ece and self.ecn_ok:
                self._handle_ece()
            if not (pkt.ece and self.ecn_ok and self.cc_name != "dctcp"):
                if self._cwnd_limited(acked):
                    self.cc.on_ack(max(acked, 0), rtt)

        if self.snd_nxt > self.snd_una:
            self._arm_rto()
        else:
            self.rto_timer.stop()
        if fin_ack and not self.fin_acked:
            self.fin_acked = True
            self._maybe_finish_close()

    def _handle_ece(self) -> None:
        """Classic once-per-window ECE reaction (DCTCP overrides it)."""
        if not self.cc.on_ecn_signal():
            return  # algorithm handled the reduction itself
        if self.snd_una < self.ecn_reduce_point:
            return  # already reduced in this window
        self.ssthresh = self.cc.ssthresh_after_loss()
        self.cwnd = self.ssthresh
        self.ecn_reduce_point = self.snd_nxt
        self._cwr_pending = True

    def _handle_dupack(self, pkt: Packet, newly_sacked: int) -> None:
        self.dupacks += 1
        self.cc.on_ack_ecn_info(0, pkt.ece)
        if self.in_recovery:
            if self.after_rto:
                # A SACKed retransmission leaves the estimated pipe.
                self._retx_pipe = max(0, self._retx_pipe - newly_sacked)
            return  # _try_send's recovery path reacts to the new SACK info
        loss = self.dupacks >= 3 or self.sacked_bytes > 3 * self.mss
        if loss:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self.fast_retransmits += 1
        self.cc.on_enter_recovery()
        self.ssthresh = self.cc.ssthresh_after_loss()
        self.cwnd = self.ssthresh
        self.in_recovery = True
        self.after_rto = False
        self.recovery_point = self.snd_nxt
        self._retx_next = self.snd_una
        self._arm_rto()

    # -- data reception ----------------------------------------------------
    def _handle_data(self, pkt: Packet) -> None:
        if self.state not in (ESTABLISHED, FIN_WAIT, SYN_RCVD):
            return
        start = pkt.seq
        end = (start + pkt.payload_len) & SEQ_MASK  # Packet.end_seq
        prev_rcv_nxt = self.rcv_nxt
        ce = pkt.ecn == ECN_CE
        if self.ecn_ok:
            if self.cc_name == "dctcp":
                self.ece_latched = ce  # precise per-ACK echo
            elif ce:
                self.ece_latched = True
        if pkt.cwr and self.cc_name != "dctcp":
            self.ece_latched = False
        delivered = 0
        if end <= self.rcv_nxt:
            pass  # pure duplicate
        elif start <= self.rcv_nxt:
            delivered = end - self.rcv_nxt
            self.rcv_nxt = end
            if self.ooo:
                delivered += self._drain_ooo()
        else:
            _merge_interval(self.ooo, start, end)
        if delivered:
            self.bytes_delivered += delivered
            if self.on_data is not None:
                self.on_data(delivered)
        if self.ack_division > 1 and self.rcv_nxt - prev_rcv_nxt > 1:
            self._send_divided_acks(prev_rcv_nxt, tsecr=pkt.tsval)
        else:
            self._send_ack(tsecr=pkt.tsval)

    def _send_divided_acks(self, prev_rcv_nxt: int, tsecr: float) -> None:
        """ACK division (Savage et al. 1999): acknowledge one delivery as
        many sub-MSS cumulative ACKs, tricking packet-counting or
        carelessly byte-counting senders into inflated window growth."""
        total = self.rcv_nxt - prev_rcv_nxt
        k = min(self.ack_division, total)
        step = total // k
        points = [prev_rcv_nxt + step * i for i in range(1, k)]
        points.append(self.rcv_nxt)
        for ack_seq in points:
            ackpkt = self._make_packet(seq=self.snd_nxt, ack=True)
            ackpkt.ack_seq = ack_seq
            ackpkt.tsecr = tsecr
            ackpkt.ece = bool(self.ece_latched and self.ecn_ok)
            if self.ooo:
                ackpkt.sack_blocks = tuple(self.ooo[:MAX_SACK_BLOCKS])
            self._transmit(ackpkt)

    def _drain_ooo(self) -> int:
        delivered = 0
        while self.ooo and self.ooo[0][0] <= self.rcv_nxt:
            s, e = self.ooo.pop(0)
            if e > self.rcv_nxt:
                delivered += e - self.rcv_nxt
                self.rcv_nxt = e
        return delivered

    # -- teardown -------------------------------------------------------------
    def _handle_fin(self, pkt: Packet) -> None:
        fin_seq = pkt.seq + pkt.payload_len
        if fin_seq > self.rcv_nxt:
            return  # FIN beyond a hole; will be retransmitted
        if not self.fin_received:
            self.fin_received = True
            self.rcv_nxt = max(self.rcv_nxt, fin_seq + 1)
        self._send_ack(tsecr=pkt.tsval)
        self._maybe_finish_close()

    def _maybe_finish_close(self) -> None:
        if self.fin_received and (not self.fin_sent or self.fin_acked):
            if self.fin_sent and self.fin_acked:
                self._enter_closed()
            elif not self.fin_pending and not self.fin_sent:
                # Peer closed first; mirror it so both sides converge.
                self.close()

    def _enter_closed(self) -> None:
        if self.state == CLOSED and self.closed_at is not None:
            return
        self.state = CLOSED
        self.closed_at = self.sim.now
        self.rto_timer.stop()
        if self.on_close is not None:
            self.on_close()
