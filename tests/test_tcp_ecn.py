"""Guest TCP: ECN signalling behaviour (classic and DCTCP-style).

These use the three-host star so the receiver's downlink actually marks.
"""

import pytest

from repro.net.topology import star
from repro.sim import Simulator
from repro.workloads.apps import Sink


def congested_pair(three_hosts, cc, ecn=True):
    """Two flows with stack `cc` into one receiver; returns the conns."""
    sim, topo, a, b, c, sw = three_hosts
    opts = {"cc": cc, "ecn": ecn}
    Sink(c, 7000, **opts)
    conns = []
    for src in (a, b):
        conn = src.connect(c.addr, 7000, **opts)
        conn.send_forever()
        conns.append(conn)
    return sim, conns, sw


def ran_pair(cc, until):
    """``congested_pair`` on a fresh ``three_hosts`` star, run to ``until``."""
    sim = Simulator()
    topo, hosts, switch = star(sim, 3, mtu=1500, ecn_enabled=True)
    sim, conns, sw = congested_pair((sim, topo, *hosts, switch), cc)
    sim.run(until=until)
    return sim, conns, sw


# Each run is read by two tests that only inspect it, so one run per
# module serves both.
@pytest.fixture(scope="module")
def cubic_pair():
    return ran_pair("cubic", 0.1)


@pytest.fixture(scope="module")
def dctcp_pair():
    return ran_pair("dctcp", 0.2)


def test_classic_ecn_reduces_instead_of_dropping(cubic_pair):
    sim, conns, sw = cubic_pair
    assert sw.marker.marked_packets > 0
    # The flows reacted to ECE (ecn_reduce_point advanced) without loss.
    for conn in conns:
        assert conn.ecn_reduce_point > 0
        assert conn.timeouts == 0
    assert sw.total_drops() == 0


def test_classic_ecn_keeps_queue_near_threshold(cubic_pair):
    sim, conns, sw = cubic_pair
    # Queue bounded well below the CUBIC no-ECN buffer fill.
    assert sw.shared.used < 4 * sw.marker.threshold


def test_dctcp_guest_alpha_reflects_marking(dctcp_pair):
    sim, conns, sw = dctcp_pair
    for conn in conns:
        # Persistent threshold marking: alpha settles away from 0 and 1.
        assert 0.05 < conn.cc.alpha < 0.9


def test_dctcp_throughput_beats_classic_ecn_cubic(dctcp_pair):
    """Proportional backoff wastes less capacity than halving."""
    sim, conns, sw = dctcp_pair
    total = sum(c.bytes_acked_total for c in conns) * 8 / 0.2
    assert total > 8.5e9


def test_no_ecn_stack_fills_buffer_and_drops(three_hosts):
    sim, topo, a, b, c, sw = three_hosts
    sw.marker.enabled = False  # CUBIC baseline: WRED/ECN off
    opts = {"cc": "cubic", "ecn": False}
    Sink(c, 7000, **opts)
    for src in (a, b):
        conn = src.connect(c.addr, 7000, **opts)
        conn.send_forever()
    sim.run(until=0.1)
    assert sw.total_drops() > 0
    assert sw.shared.used > 10 * sw.marker.threshold


def test_cwr_clears_classic_echo(two_hosts):
    """Receiver latches ECE until it sees CWR from the sender."""
    sim, topo, a, b, _sw = two_hosts
    from repro.net.packet import ECN_CE, Packet
    accepted = []
    b.listen(7000, on_accept=lambda cn: accepted.append(cn), ecn=True)
    conn = a.connect(b.addr, 7000, ecn=True)
    conn.send(100_000)
    sim.run(until=0.05)
    server = accepted[0]
    # Force a CE mark as if the switch marked one data packet.
    pkt = Packet(src=a.addr, dst=b.addr, sport=conn.lport, dport=7000,
                 seq=conn.snd_nxt, payload_len=0, ack=True, ecn=ECN_CE)
    server.ece_latched = True  # as after receiving CE data
    assert server.ece_latched
    # Sender reduces and announces CWR on its next data packet, which
    # clears the latch at the receiver.
    conn._cwr_pending = True
    conn.send(1460)
    sim.run(until=0.1)
    assert not server.ece_latched
