"""Unit tests for transmit ports (serialization, queueing policies)."""

import pytest

from repro.net.buffer import SharedBuffer
from repro.net.link import HostTxPort, SwitchTxPort, TxPort
from repro.net.packet import ECN_ECT0, ECN_NOT_ECT, Packet
from repro.net.red import EcnMarker


def data(size=980, ecn=ECN_NOT_ECT):
    # payload 960 + 40B headers = `size` wire bytes when size=1000
    return Packet(src="a", dst="b", sport=1, dport=2,
                  payload_len=size - 40, ecn=ecn)


def test_serialization_time(sim, trap):
    port = TxPort(sim, rate_bps=8000.0, delay_s=0.0, peer=trap)
    port.enqueue(data(1000))  # 1000 B at 8 kb/s = 1 s
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert len(trap.packets) == 1


def test_propagation_adds_delay(sim, trap):
    port = TxPort(sim, rate_bps=8000.0, delay_s=0.25, peer=trap)
    port.enqueue(data(1000))
    sim.run()
    assert sim.now == pytest.approx(1.25)


def test_fifo_order_and_back_to_back(sim, trap):
    port = TxPort(sim, rate_bps=8000.0, delay_s=0.0, peer=trap)
    first, second = data(1000), data(1000)
    port.enqueue(first)
    port.enqueue(second)
    sim.run()
    assert [p.pid for p in trap.packets] == [first.pid, second.pid]
    assert sim.now == pytest.approx(2.0)


def test_zero_rate_means_instant(sim, trap):
    port = TxPort(sim, rate_bps=0.0, delay_s=0.0, peer=trap)
    port.enqueue(data())
    sim.run()
    assert sim.now == 0.0
    assert trap.packets


def test_queue_accounting(sim, trap):
    port = TxPort(sim, rate_bps=8000.0, delay_s=0.0, peer=trap)
    for _ in range(3):
        port.enqueue(data(1000))
    # One packet is in serialization (removed from queue), two waiting.
    assert port.queue_packets == 2
    assert port.queue_bytes == 2000
    sim.run()
    assert port.queue_packets == 0
    assert port.queue_bytes == 0


def test_stats_count_tx(sim, trap):
    port = TxPort(sim, rate_bps=1e9, delay_s=0.0, peer=trap)
    for _ in range(5):
        port.enqueue(data(1000))
    sim.run()
    assert port.stats.tx_packets == 5
    assert port.stats.tx_bytes == 5000
    assert port.stats.drop_rate == 0.0


def test_negative_rate_rejected(sim):
    with pytest.raises(ValueError):
        TxPort(sim, rate_bps=-1, delay_s=0)


def test_host_port_never_drops(sim, trap):
    port = HostTxPort(sim, rate_bps=1e6, delay_s=0.0, peer=trap)
    for _ in range(1000):
        assert port.enqueue(data(1000))
    assert port.stats.dropped_packets == 0


# ---------------------------------------------------------------------------
# Switch port: shared buffer + marking
# ---------------------------------------------------------------------------
def make_switch_port(sim, trap, capacity=10_000, k=2_000, enabled=True):
    shared = SharedBuffer(capacity)
    marker = EcnMarker(enabled=enabled, threshold_bytes=k)
    port = SwitchTxPort(sim, rate_bps=8000.0, delay_s=0.0,
                        shared=shared, marker=marker, queue_id=0, peer=trap)
    return port, shared, marker


def test_switch_port_tail_drop_on_full_buffer(sim, trap):
    # At alpha = 1 a queue may hold what is still free of the pool: 2000 B
    # of 3000 B, and then the third packet finds 1000 B free.
    port, shared, _ = make_switch_port(sim, trap, capacity=3_000, enabled=False)
    results = [port.enqueue(data(1000)) for _ in range(4)]
    assert results == [True, True, False, False]
    assert port.stats.dropped_packets == 2


def test_switch_port_releases_buffer_on_dequeue(sim, trap):
    port, shared, _ = make_switch_port(sim, trap, enabled=False)
    port.enqueue(data(1000))
    assert shared.used == 1000
    sim.run()
    assert shared.used == 0


def test_switch_port_marks_ect_above_threshold(sim, trap):
    port, _, marker = make_switch_port(sim, trap, k=1_500)
    port.enqueue(data(1000, ECN_ECT0))   # queue 0 -> no mark
    port.enqueue(data(1000, ECN_ECT0))   # queue 1000 -> no mark
    port.enqueue(data(1000, ECN_ECT0))   # queue 2000 >= K -> mark
    sim.run()
    marked = [p for p in trap.packets if p.ce]
    assert len(marked) == 1
    assert port.stats.marked_packets == 1


def test_mark_then_drop_neither_stamps_nor_counts(sim, trap):
    # Queue parked above K and at its Dynamic Threshold limit (2000 B held,
    # 1000 B free): the arriving ECT packet earns a mark verdict but fails
    # admission.  It must count as a drop only — no CE stamp, no
    # marker/port mark stats.
    port, shared, marker = make_switch_port(sim, trap, capacity=3_000, k=900)
    assert port.enqueue(data(1000, ECN_ECT0))       # queue 0 -> no mark
    assert port.enqueue(data(1000, ECN_ECT0))       # queue 1000 > K -> marked
    assert marker.marked_packets == 1
    victim = data(1000, ECN_ECT0)                   # queue 2000 > K, DT limit
    assert not port.enqueue(victim)
    assert victim.ecn == ECN_ECT0                   # no bogus CE stamp
    assert port.stats.dropped_packets == 1
    assert port.stats.marked_packets == 1           # unchanged by the drop
    assert marker.marked_packets == 1
    sim.run()
    # The admitted-and-marked packet (and only it) carried CE to the peer.
    assert sum(1 for p in trap.packets if p.ce) == 1


def test_switch_port_drops_nonect_above_ramp(sim, trap):
    port, _, _ = make_switch_port(sim, trap, k=1_000)
    port.enqueue(data(1000, ECN_NOT_ECT))
    port.enqueue(data(1000, ECN_NOT_ECT))   # queue 1000 -> on the ramp
    port.enqueue(data(1000, ECN_NOT_ECT))   # queue 2000 -> beyond ramp top
    # The third is a certain drop (>= 1.25*K); the second is probabilistic.
    assert port.stats.dropped_packets >= 1
