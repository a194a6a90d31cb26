"""Unit tests for the Host datapath glue."""

import pytest

from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.topology import star
from repro.sim import Simulator


def test_host_requires_nic_for_output(sim):
    host = Host(sim, "lonely")
    with pytest.raises(RuntimeError):
        host.wire_out(Packet(src="lonely", dst="x", sport=1, dport=2))


def test_host_counts_packets_and_bytes(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    from repro.workloads.apps import Sink
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(10_000)
    sim.run(until=0.05)
    assert a.tx_packets > 0 and a.rx_packets > 0
    assert a.tx_bytes > 10_000         # data + headers
    assert b.rx_bytes > 10_000
    assert b.tx_packets > 0            # ACKs


def test_jitter_preserves_host_fifo_order(sim):
    """Per-packet jitter must never reorder one host's own packets."""
    host = Host(sim, "h", tx_jitter=5e-6, seed=3)
    order = []

    class Recorder:
        def enqueue(self, pkt, when=None):
            order.append((when, pkt.pid))  # the jittered arrival time
            return True

    host.nic = Recorder()
    packets = [Packet(src="h", dst="x", sport=1, dport=2, payload_len=10)
               for _ in range(50)]
    for p in packets:
        host.wire_out(p)
    sim.run()
    times = [t for t, _ in order]
    pids = [pid for _, pid in order]
    assert times == sorted(times)
    assert pids == [p.pid for p in packets]


def test_zero_jitter_is_synchronous(sim):
    host = Host(sim, "h", tx_jitter=0.0)
    got = []

    class Recorder:
        def enqueue(self, pkt, when=None):
            assert when is None  # no jitter: the packet arrives now
            got.append(pkt)
            return True

    host.nic = Recorder()
    host.wire_out(Packet(src="h", dst="x", sport=1, dport=2))
    assert got  # delivered without running the simulator


def test_vswitch_can_consume_packets(two_hosts):
    sim, topo, a, b, _sw = two_hosts

    class BlackHole:
        def egress(self, pkt):
            return None

        def ingress(self, pkt):
            return pkt

    a.attach_vswitch(BlackHole())
    conn = a.connect(b.addr, 7000)
    sim.run(until=0.05)
    assert b.rx_packets == 0  # nothing escaped the host


def test_unknown_flow_packets_ignored(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    stray = Packet(src="a-ghost", dst=b.addr, sport=9, dport=9,
                   ack=True, ack_seq=100)
    b.receive(stray)  # no listener, not a SYN: silently dropped
    assert not b.connections


def test_listener_conn_opts_applied(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    b.listen(7000, cc="vegas", wscale=3)
    conn = a.connect(b.addr, 7000)
    sim.run(until=0.01)
    server = b.connections[(b.addr, 7000, a.addr, conn.lport)]
    assert server.cc_name == "vegas"
    assert server.my_wscale == 3
