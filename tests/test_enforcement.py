"""Unit tests for RWND enforcement and policing (§3.3)."""

from repro.core.enforcement import (POLICING_SLACK_SEGMENTS, Policer,
                                   WindowEnforcer)
from repro.net.packet import Packet


def ack_with_window(window_bytes, wscale):
    p = Packet(src="b", dst="a", sport=2, dport=1, ack=True)
    p.set_advertised_window(window_bytes, wscale)
    return p


def test_enforce_overwrites_smaller_window():
    enforcer = WindowEnforcer()
    ack = ack_with_window(1 << 20, 9)
    assert enforcer.enforce(ack, 50_000, 9)
    assert ack.advertised_window(9) <= 50_000 + (1 << 9)
    assert enforcer.rewrites == 1


def test_enforce_preserves_tighter_original():
    """Never lie upward about receive buffer space."""
    enforcer = WindowEnforcer()
    ack = ack_with_window(10_000, 9)
    assert not enforcer.enforce(ack, 1 << 20, 9)
    assert ack.advertised_window(9) < 20_000
    assert enforcer.passes == 1


def test_enforce_equal_window_is_a_pass():
    enforcer = WindowEnforcer()
    ack = ack_with_window(1 << 15, 0)
    assert not enforcer.enforce(ack, 1 << 15, 0)


def test_enforce_respects_window_scale():
    enforcer = WindowEnforcer()
    ack = ack_with_window(1 << 22, 9)
    enforcer.enforce(ack, 100_000, 9)
    # Encoded field must decode (at scale 9) to >= requested window.
    assert 100_000 <= ack.advertised_window(9) < 100_000 + (1 << 9)


def test_make_window_update():
    pkt = WindowEnforcer.make_window_update(("b", 2, "a", 1), 5000, 30_000, 4)
    assert pkt.src == "b" and pkt.dst == "a"
    assert pkt.ack and pkt.ack_seq == 5000
    assert pkt.payload_len == 0
    assert pkt.advertised_window(4) >= 30_000


# ---------------------------------------------------------------------------
# Policer
# ---------------------------------------------------------------------------
def data(seq, length, mss=1460):
    return Packet(src="a", dst="b", sport=1, dport=2, seq=seq,
                  payload_len=length)


#: The policer's grace past the encoded window at a 1460-byte MSS.
SLACK = POLICING_SLACK_SEGMENTS * 1460


def test_policer_allows_within_window():
    policer = Policer()
    assert policer.allow(data(0, 1000), snd_una=0, window_bytes=2000, mss=1460)
    assert policer.drops == 0


def test_policer_drops_beyond_window():
    policer = Policer()
    assert not policer.allow(data(5000, 1460), snd_una=0, window_bytes=2000,
                             mss=1460)
    assert policer.drops == 1


def test_policer_slack_absorbs_boundary():
    policer = Policer()
    # 2 MSS beyond the window: allowed by slack.
    assert POLICING_SLACK_SEGMENTS == 2
    pkt = data(2000, 1460)
    assert policer.allow(pkt, snd_una=0, window_bytes=2000, mss=1460)


def test_policer_exact_edge():
    """The budget edge is exact: window plus slack, not a byte more."""
    policer = Policer()
    assert policer.allow(data(0, 2000 + SLACK), snd_una=0, window_bytes=2000,
                         mss=1460)
    assert not policer.allow(data(1, 2000 + SLACK), snd_una=0,
                             window_bytes=2000, mss=1460)
    assert policer.allow(data(0, 2920 + SLACK), snd_una=0, window_bytes=2920,
                         mss=1460)
    assert not policer.allow(data(1460, 1461 + SLACK), snd_una=0,
                             window_bytes=2920, mss=1460)
    assert policer.drops == 2


# ---------------------------------------------------------------------------
# Policer edges: zero windows, encoding rounding, wraparound
# ---------------------------------------------------------------------------
def test_policer_zero_window_admits_one_byte_probe():
    """A zero window must not deadlock a conforming flow: the one-byte
    window probe passes (inside the slack), anything past the slack is
    policed."""
    policer = Policer()
    assert policer.allow(data(0, 1), snd_una=0, window_bytes=0, mss=1460)
    assert not policer.allow(data(0, SLACK + 1), snd_una=0, window_bytes=0,
                             mss=1460)
    assert not policer.allow(data(1, SLACK), snd_una=0, window_bytes=0,
                             mss=1460)
    assert policer.drops == 2


def test_policer_zero_window_with_slack_keeps_slack_budget():
    policer = Policer()
    assert policer.allow(data(0, SLACK), snd_una=0, window_bytes=0, mss=1460)
    assert not policer.allow(data(0, SLACK + 1), snd_una=0, window_bytes=0,
                             mss=1460)


def test_policer_honours_wscale_encoding_roundup():
    """Enforcement rounds the 16-bit field *up* to the next wscale unit,
    so a conforming stack may sit just past the raw window — the policer
    must police against the encoded edge, not the raw one."""
    policer = Policer()
    window, wscale = 50_000, 9
    ack = ack_with_window(1 << 20, wscale)
    WindowEnforcer().enforce(ack, window, wscale)
    encoded = ack.advertised_window(wscale)  # 50_176 at wscale 9
    assert encoded > window
    # The VM legitimately fills the encoded window (plus the slack)...
    assert policer.allow(data(0, encoded + SLACK), snd_una=0,
                         window_bytes=window, mss=1460, wscale=wscale)
    # ...but one byte beyond that edge is a violation.
    assert not policer.allow(data(1, encoded + SLACK), snd_una=0,
                             window_bytes=window, mss=1460, wscale=wscale)


def test_policer_exact_boundary_across_wrap():
    """The enforced_wnd + slack edge behaves identically across 2^32."""
    from repro.net.packet import SEQ_SPACE
    policer = Policer()
    una = SEQ_SPACE - 1000
    window, mss = 2000, 1460
    budget = window + SLACK
    edge_start = (una + budget - 100) % SEQ_SPACE  # ends exactly at the edge
    assert policer.allow(data(edge_start, 100), snd_una=una,
                         window_bytes=window, mss=mss)
    assert not policer.allow(data(edge_start, 101), snd_una=una,
                             window_bytes=window, mss=mss)
    # Retransmission from just below the wrap is always admitted.
    assert policer.allow(data(una - 1460, 1460), snd_una=una,
                         window_bytes=window, mss=mss)
    assert policer.drops == 1
