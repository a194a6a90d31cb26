"""Packet and header model.

AC/DC works entirely by inspecting and rewriting TCP/IP headers in the
vSwitch datapath, so the reproduction models the header fields explicitly
rather than treating packets as opaque blobs:

* the 5-tuple the flow table hashes on (§4),
* sequence/ACK numbers the conntrack infers CC state from (§3.1),
* the IP ECN codepoint and TCP ECE/CWR bits that the sender/receiver
  modules set and strip (§3.2),
* the 16-bit receive window plus the window-scale option that the
  enforcement module rewrites (§3.3),
* TCP options: window scale on SYNs, and the 8-byte AC/DC PACK feedback
  option (total bytes / ECN-marked bytes seen at the receiver vSwitch),
* the reserved-bit flag AC/DC uses to remember whether the VM itself
  negotiated ECN (``vm_ect``).

Sizes are in bytes.  Sequence numbers live in TCP's 32-bit circular
space: the :func:`seq_lt` family implements RFC 1982-style serial
arithmetic so flows that transfer more than 4 GB (or start near the top
of the space) compare correctly across the wrap.  The vSwitch-side
consumers (conntrack, the policer, the vSwitch CC gates) all go through
these helpers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

# --- 32-bit sequence space (RFC 1982 serial arithmetic) ----------------
SEQ_SPACE = 1 << 32
SEQ_MASK = SEQ_SPACE - 1
SEQ_HALF = 1 << 31


def seq_add(seq: int, n: int) -> int:
    """``seq + n`` wrapped into the 32-bit sequence space."""
    return (seq + n) & SEQ_MASK


def seq_delta(a: int, b: int) -> int:
    """Signed circular distance ``a - b`` in [-2^31, 2^31).

    Positive when ``a`` is ahead of ``b`` by less than half the space —
    the serial-arithmetic notion of "later" that survives wraparound.
    """
    return ((a - b + SEQ_HALF) & SEQ_MASK) - SEQ_HALF


# The comparisons are seq_delta's sign, each as one expression of its own
# (``(a - b) & SEQ_MASK`` is the unsigned distance; the back half of the
# space is "behind"): they run several times per packet in the datapath.
def seq_lt(a: int, b: int) -> bool:
    """True if ``a`` precedes ``b`` in the circular sequence space."""
    return (a - b) & SEQ_MASK >= SEQ_HALF


def seq_leq(a: int, b: int) -> bool:
    return not 0 < (a - b) & SEQ_MASK < SEQ_HALF


def seq_gt(a: int, b: int) -> bool:
    """True if ``a`` follows ``b`` in the circular sequence space."""
    return 0 < (a - b) & SEQ_MASK < SEQ_HALF


def seq_geq(a: int, b: int) -> bool:
    return (a - b) & SEQ_MASK < SEQ_HALF

# --- IP ECN codepoints (RFC 3168) -------------------------------------
ECN_NOT_ECT = 0  # not ECN-capable transport
ECN_ECT0 = 2     # ECN-capable transport, codepoint 0
ECN_CE = 3       # congestion experienced

# --- header sizes ------------------------------------------------------
IP_HEADER = 20
TCP_HEADER = 20
WSCALE_OPTION = 3   # kind, length, shift (padded in real stacks; close enough)
PACK_OPTION = 8     # the paper: "adding an additional 8 bytes as a TCP Option"

#: Conventional Ethernet MTUs used throughout the paper's evaluation.
MTU_ETHERNET = 1500
MTU_JUMBO = 9000


def mss_for_mtu(mtu: int) -> int:
    """Maximum segment size for an MTU (IP + TCP base headers removed)."""
    return mtu - IP_HEADER - TCP_HEADER


def encode_window(window_bytes: int, wscale: int) -> int:
    """The 16-bit window field for ``window_bytes`` under ``wscale``.

    Rounds *up* to the next representable value so that the encoded
    window is never smaller than requested by less than one scale unit,
    then clamps to the 16-bit ceiling.
    """
    if window_bytes < 0:
        raise ValueError(f"negative window {window_bytes!r}")
    return min(0xFFFF, (window_bytes + (1 << wscale) - 1) >> wscale)


FlowKey = Tuple[str, int, str, int]

# Debug-only labels: a pid never enters a datapath decision or a result,
# so a restored run re-counting from 1 is harmless.
_packet_ids = itertools.count(1)  # repro-lint: disable=RL006 (pid is a debug label, never state)


@dataclass
class PackOption:
    """AC/DC congestion feedback carried as a TCP option (§3.2).

    ``total_bytes`` and ``marked_bytes`` are the receiver-module counters
    for the flow: cumulative payload bytes received and the subset that
    arrived with IP ECN = CE.
    """

    total_bytes: int
    marked_bytes: int


@dataclass(slots=True)
class Packet:
    """A TCP/IP packet (or, with TSO in mind, one wire segment).

    ``payload_len`` is application payload; :attr:`size` adds header and
    option overhead and is what links serialize and switch buffers account.
    Slotted: a misspelt header field raises instead of riding along unread.
    """

    src: str
    dst: str
    sport: int
    dport: int
    seq: int = 0
    ack_seq: int = 0
    payload_len: int = 0
    # TCP flags
    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False
    ece: bool = False
    cwr: bool = False
    # Flow control: raw 16-bit window field; actual window = field << wscale.
    rwnd_field: int = 0xFFFF
    wscale: Optional[int] = None  # window-scale option, present on SYNs only
    # IP ECN codepoint.
    ecn: int = ECN_NOT_ECT
    # AC/DC option & bookkeeping.
    pack: Optional[PackOption] = None
    is_fack: bool = False   # dedicated feedback packet (dropped at sender vSwitch)
    vm_ect: bool = False    # reserved bit: VM's own stack negotiated ECN
    # TCP timestamp option (RTT estimation in guest stacks).
    # -1 means "option absent" (virtual time starts at 0.0, so 0 is a
    # perfectly valid echo value).
    tsval: float = -1.0
    tsecr: float = -1.0
    # SACK option: up to 4 (start, end) byte ranges received out of order.
    # The testbed runs with tcp_sack=1 (§5), and without it large-window
    # loss recovery is unrealistically slow.
    sack_blocks: Optional[Tuple[Tuple[int, int], ...]] = None
    # In-band network telemetry (repro.obs.int), carried OUT OF BAND:
    # neither field counts into :attr:`size`, because switch buffers
    # account admit/release at the same byte size and a stack growing
    # mid-queue would break that conservation (the real ~12 B/hop wire
    # overhead is a documented fidelity boundary, DESIGN.md §16).
    # ``int_stack`` is a list of per-hop tuples appended by switch
    # ports; ``int_echo`` is the immutable digest a receiver vSwitch
    # piggybacks on ACKs.  Both are stripped before any VM sees them.
    int_stack: Optional[list] = None
    int_echo: Optional[object] = None
    pid: int = field(default_factory=_packet_ids.__next__)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Wire size in bytes: headers + options + payload."""
        overhead = IP_HEADER + TCP_HEADER
        if self.wscale is not None:
            overhead += WSCALE_OPTION
        if self.pack is not None:
            overhead += PACK_OPTION
        if self.sack_blocks:
            overhead += 2 + 8 * len(self.sack_blocks)
        return overhead + self.payload_len

    @property
    def end_seq(self) -> int:
        """Sequence number just past this segment's payload (mod 2^32)."""
        return seq_add(self.seq, self.payload_len)

    def copy(self) -> "Packet":
        """Wire-level duplicate: same headers and payload, fresh identity.

        Used by the fault injectors; nested mutable options are copied so
        a later rewrite of one duplicate cannot alias the other.
        """
        dup = replace(self)
        dup.pid = next(_packet_ids)
        if self.pack is not None:
            dup.pack = PackOption(self.pack.total_bytes, self.pack.marked_bytes)
        if self.int_stack is not None:
            # Hop records are immutable tuples; the list that holds them
            # is not (switch ports append to it).
            dup.int_stack = list(self.int_stack)
        # int_echo is immutable by contract (see repro.obs.int.IntEcho),
        # so the duplicate may share the reference.
        return dup

    def flow_key(self) -> FlowKey:
        """5-tuple identity in the direction the packet travels."""
        return (self.src, self.sport, self.dst, self.dport)

    def reverse_key(self) -> FlowKey:
        """5-tuple identity of the opposite direction (data vs ACK path)."""
        return (self.dst, self.dport, self.src, self.sport)

    # --- window helpers -------------------------------------------------
    def advertised_window(self, wscale: int) -> int:
        """Receive window in bytes given the connection's negotiated scale."""
        return self.rwnd_field << wscale

    def set_advertised_window(self, window_bytes: int, wscale: int) -> None:
        """Encode ``window_bytes`` into the 16-bit field under ``wscale``
        (see :func:`encode_window`)."""
        self.rwnd_field = encode_window(window_bytes, wscale)

    # --- ECN helpers ----------------------------------------------------
    @property
    def ect(self) -> bool:
        """True if the packet is marked ECN-capable (or already CE)."""
        return self.ecn in (ECN_ECT0, ECN_CE)

    @property
    def ce(self) -> bool:
        return self.ecn == ECN_CE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            ch
            for ch, on in (
                ("S", self.syn), ("A", self.ack), ("F", self.fin),
                ("R", self.rst), ("E", self.ece), ("C", self.cwr),
            )
            if on
        )
        return (
            f"<Pkt {self.src}:{self.sport}->{self.dst}:{self.dport} "
            f"seq={self.seq} ack={self.ack_seq} len={self.payload_len} "
            f"[{flags}] ecn={self.ecn}>"
        )


def make_data_packet(
    key: FlowKey,
    seq: int,
    payload_len: int,
    ack_seq: int = 0,
) -> Packet:
    """Convenience constructor used heavily by tests."""
    src, sport, dst, dport = key
    return Packet(
        src=src, sport=sport, dst=dst, dport=dport,
        seq=seq, ack_seq=ack_seq, payload_len=payload_len, ack=True,
    )


def make_ack_packet(key: FlowKey, ack_seq: int, rwnd_field: int = 0xFFFF) -> Packet:
    """Convenience constructor for a bare ACK of the *forward* key."""
    src, sport, dst, dport = key
    return Packet(
        src=dst, sport=dport, dst=src, dport=sport,
        ack=True, ack_seq=ack_seq, rwnd_field=rwnd_field,
    )
