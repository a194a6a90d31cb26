"""Unit tests for the output-queued switch."""

import pytest

from repro.net.buffer import SharedBuffer
from repro.net.link import SwitchTxPort
from repro.net.packet import Packet
from repro.net.red import RAMP_FACTOR, EcnMarker
from repro.net.switch import DEFAULT_BUFFER_BYTES, Switch
from repro.net.topology import Topology


def pkt(dst="b", payload=960):
    return Packet(src="a", dst=dst, sport=1, dport=2, payload_len=payload)


def test_forwarding_by_fib(sim, trap):
    sw = Switch(sim, "sw", ecn_enabled=False)
    port = sw.add_port(1e9, 0.0, peer=trap)
    sw.set_route("b", port)
    sw.receive(pkt("b"))
    sim.run()
    assert len(trap.packets) == 1
    assert sw.rx_packets == 1


def test_no_route_drops_and_counts(sim, trap):
    sw = Switch(sim, "sw", ecn_enabled=False)
    sw.add_port(1e9, 0.0, peer=trap)
    sw.receive(pkt("unknown"))
    sim.run()
    assert not trap.packets
    assert sw.no_route_drops == 1


def test_set_route_unknown_port_raises(sim):
    sw = Switch(sim, "sw")
    with pytest.raises(KeyError):
        sw.set_route("b", 99)


def test_ports_share_one_buffer(sim, trap):
    """Filling one port's queue shrinks what another port may hold."""
    shared = SharedBuffer(10_000)
    marker = EcnMarker(enabled=False)
    slow_a, slow_b = (SwitchTxPort(sim, 8e3, 0.0, shared, marker,
                                   queue_id=q, peer=trap) for q in (0, 1))
    for _ in range(10):
        slow_a.enqueue(pkt("a_side"))
    used_after_a = shared.used
    for _ in range(10):
        slow_b.enqueue(pkt("b_side"))
    assert shared.queue_bytes(1) < used_after_a


def test_drop_counters_aggregate(sim, trap):
    """One port offered more than its Dynamic Threshold share of the
    switch's pool (alpha = 1: half of it) drops the rest, and the
    switch-wide counters add up what its ports dropped and sent."""
    sw = Switch(sim, "sw", ecn_enabled=False)
    port = sw.add_port(1e9, 0.0, peer=trap)
    sw.set_route("b", port)
    size = pkt("b").size
    # The n-th packet is admitted while n * size <= free = capacity -
    # (n - 1) * size.
    admitted = (DEFAULT_BUFFER_BYTES // size + 1) // 2
    offered = admitted + 300
    for _ in range(offered):
        sw.receive(pkt("b"))
    assert sw.total_drops() == 300
    sim.run()
    assert sw.total_tx_packets() == admitted == len(trap.packets)
    assert sw.drop_rate() == pytest.approx(300 / offered)


def test_connect_port_later(sim, trap):
    sw = Switch(sim, "sw", ecn_enabled=False)
    port = sw.add_port(1e9, 0.0)
    sw.connect_port(port, trap)
    sw.set_route("b", port)
    sw.receive(pkt("b"))
    sim.run()
    assert trap.packets


def wred_drops(switch, n=200):
    """Drop verdicts for ``n`` non-ECT packets offered to ``switch``'s
    WRED profile halfway up its ramp (drop probability 0.5)."""
    marker = switch.marker
    half = marker.threshold * (1.0 + RAMP_FACTOR) / 2
    return [marker.decide(pkt(), half).drop for _ in range(n)]


def test_each_switch_draws_its_own_wred_stream(sim):
    """Each switch draws its WRED drops from a stream named after it and
    seeded by its topology: two switches of one run do not drop in
    lockstep, a second seed draws anew, and an equal (seed, name)
    repeats."""
    topo = Topology(sim, seed=0)
    left, right = (wred_drops(topo.add_switch(name))
                   for name in ("sw-left", "sw-right"))
    reseeded = wred_drops(Topology(sim, seed=1).add_switch("sw-left"))
    again = wred_drops(Topology(sim, seed=0).add_switch("sw-left"))
    assert 60 < sum(left) < 140
    assert left != right
    assert left != reseeded
    assert again == left
