"""32-bit sequence wraparound: serial arithmetic end to end.

The vSwitch infers CC state from raw sequence numbers, so a flow that
transfers more than 4 GB (or whose ISS sits near 2^32) crosses the wrap
mid-flight.  These tests drive the conntrack, the CC gates and the
policer across the boundary with synthetic packets — simulating a 4 GB
transfer packet-by-packet would be wasteful; the arithmetic is what's
under test.
"""

from repro.core.conntrack import ConnTrack
from repro.core.dctcp_vswitch import VswitchDctcp
from repro.core.enforcement import POLICING_SLACK_SEGMENTS, Policer
from repro.net.packet import (
    SEQ_MASK,
    SEQ_SPACE,
    Packet,
    seq_add,
    seq_delta,
    seq_geq,
    seq_gt,
    seq_leq,
    seq_lt,
)

MSS = 1460


def _data(seq, length):
    return Packet(src="a", dst="b", sport=1, dport=2,
                  seq=seq & SEQ_MASK, payload_len=length)


def _ack(ack_seq):
    return Packet(src="b", dst="a", sport=2, dport=1, ack=True,
                  ack_seq=ack_seq & SEQ_MASK)


# ---------------------------------------------------------------------------
# Serial-arithmetic helpers
# ---------------------------------------------------------------------------
def test_serial_helpers_basics():
    assert seq_add(SEQ_MASK, 1) == 0
    assert seq_add(SEQ_SPACE - 100, 200) == 100
    assert seq_delta(100, SEQ_SPACE - 100) == 200
    assert seq_delta(SEQ_SPACE - 100, 100) == -200
    assert seq_gt(5, SEQ_SPACE - 5)
    assert seq_lt(SEQ_SPACE - 5, 5)
    assert seq_leq(7, 7) and seq_geq(7, 7)
    # Ordinary (non-wrapping) comparisons are unchanged.
    assert seq_lt(100, 200) and seq_gt(200, 100)


def test_serial_helpers_half_space_boundary():
    # Exactly half the space apart: delta is -2^31 (RFC 1982's undefined
    # zone resolves to "behind", deterministically).
    assert seq_delta(0, 1 << 31) == -(1 << 31)
    assert seq_lt(0, 1 << 31)


# ---------------------------------------------------------------------------
# ConnTrack across the wrap
# ---------------------------------------------------------------------------
def test_conntrack_tracks_across_wrap():
    ct = ConnTrack()
    iss = SEQ_SPACE - 3 * MSS  # SYN 3 segments below the wrap
    syn = Packet(src="a", dst="b", sport=1, dport=2, syn=True, seq=iss)
    ct.on_egress_syn(syn, now=0.0)
    seq = seq_add(iss, 1)
    ct.on_ingress_ack(_ack(seq), now=0.0005)  # SYN-ACK consumes the SYN
    for i in range(6):  # data crosses the wrap on the third segment
        ct.on_egress_data(_data(seq, MSS))
        seq = seq_add(seq, MSS)
    assert ct.snd_nxt == seq
    assert ct.bytes_outstanding == 6 * MSS
    verdict = ct.on_ingress_ack(_ack(seq), now=0.001)
    assert verdict.newly_acked == 6 * MSS
    assert ct.bytes_outstanding == 0
    assert ct.snd_una == seq < 6 * MSS  # numerically tiny: we wrapped


def test_conntrack_dupacks_across_wrap():
    ct = ConnTrack()
    iss = SEQ_SPACE - MSS - 1
    syn = Packet(src="a", dst="b", sport=1, dport=2, syn=True, seq=iss)
    ct.on_egress_syn(syn, now=0.0)
    seq = seq_add(iss, 1)
    for _ in range(4):
        ct.on_egress_data(_data(seq, MSS))
        seq = seq_add(seq, MSS)
    una = seq_add(iss, 1)
    ct.on_ingress_ack(_ack(una), now=0.001)  # nothing new
    for i in range(3):
        verdict = ct.on_ingress_ack(_ack(una), now=0.002 + i * 0.001)
        assert verdict.is_dupack
    assert verdict.loss_detected


def test_conntrack_cumulative_4gb_transfer():
    """Chunked 64 KB ACK clock over > 2^32 bytes: newly_acked sums to the
    full transfer with no spurious dupacks or stalls at the wrap."""
    ct = ConnTrack()
    syn = Packet(src="a", dst="b", sport=1, dport=2, syn=True, seq=0)
    ct.on_egress_syn(syn, now=0.0)
    ct.on_ingress_ack(_ack(1), now=0.0)  # SYN-ACK consumes the SYN
    chunk = 64 * 1024
    chunks = SEQ_SPACE // chunk + 16  # cross the wrap and keep going
    seq = 1
    acked_total = 0
    now = 0.0
    for i in range(chunks):
        ct.on_egress_data(_data(seq, chunk))
        seq = seq_add(seq, chunk)
        now += 1e-5
        verdict = ct.on_ingress_ack(_ack(seq), now)
        assert not verdict.is_dupack
        assert verdict.newly_acked == chunk
        acked_total += verdict.newly_acked
        assert ct.bytes_outstanding == 0
    assert acked_total == chunks * chunk > SEQ_SPACE
    assert ct.dupacks == 0
    assert ct.timeouts_inferred == 0


# ---------------------------------------------------------------------------
# vSwitch CC gates across the wrap
# ---------------------------------------------------------------------------
def test_dctcp_cut_gate_across_wrap():
    cc = VswitchDctcp(mss=MSS)
    cc.wnd = 100.0 * MSS
    una = SEQ_SPACE - 50 * MSS  # window in flight straddles the wrap
    nxt = seq_add(una, 100 * MSS)
    cc.on_ack(una, nxt, 0, MSS, MSS, loss=False)
    assert cc.cuts == 1
    # More marks while snd_una advances through the wrap: same window,
    # no further cut.
    for step in range(1, 5):
        cc.on_ack(seq_add(una, step * 20 * MSS), nxt, 0, MSS, MSS,
                  loss=False)
    assert cc.cuts == 1
    # Past the recorded cut point (beyond nxt): a new window, cut again.
    cc.on_ack(seq_add(nxt, MSS), seq_add(nxt, 50 * MSS), 0, MSS, MSS,
              loss=False)
    assert cc.cuts == 2


def test_dctcp_grows_for_flow_starting_near_wrap():
    """Lazy gate seeding: a flow whose first ACK sits just below 2^32
    must not be read as 'already cut' forever."""
    cc = VswitchDctcp(mss=MSS)
    start = cc.window_bytes
    una = SEQ_SPACE - 10 * MSS
    for i in range(20):  # unmarked ACK clock across the wrap
        una = seq_add(una, MSS)
        cc.on_ack(una, seq_add(una, 10 * MSS), MSS, MSS, 0, loss=False)
    assert cc.window_bytes > start


# ---------------------------------------------------------------------------
# Policer across the wrap
# ---------------------------------------------------------------------------
def test_policer_window_check_across_wrap():
    policer = Policer()
    una = SEQ_SPACE - 1000
    window = 3000
    edge = window + POLICING_SLACK_SEGMENTS * MSS
    inside = _data(seq_add(una, 1000), 1000)   # crosses the wrap, in-window
    beyond = _data(seq_add(una, edge - 500), 1000)  # past una+window+slack
    assert policer.allow(inside, una, window, MSS)
    assert not policer.allow(beyond, una, window, MSS)
    assert policer.drops == 1
