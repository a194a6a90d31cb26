"""Guest TCP: flow control, window scaling, clamps, pacing."""

from repro.workloads.apps import Sink


def test_sender_respects_min_cwnd_rwnd(two_hosts):
    """A tiny receive buffer bounds the bytes in flight."""
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000, rcv_buf=4 * 1460)
    conn = a.connect(b.addr, 7000)
    conn.send_forever()
    max_seen = {"inflight": 0}
    conn.window_probe = lambda c: max_seen.__setitem__(
        "inflight", max(max_seen["inflight"], c.bytes_in_flight))
    sim.run(until=0.05)
    # rwnd encoding rounds up by < one scale unit (512 B at wscale 9).
    assert max_seen["inflight"] <= 4 * 1460 + 512


def test_rwnd_limits_throughput(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000, rcv_buf=2 * 1460)
    conn = a.connect(b.addr, 7000)
    conn.send_forever()
    sim.run(until=0.1)
    # Throughput ~ rwnd / RTT (~0.9 Gb/s at a ~25 us base RTT),
    # far below the 10 G line rate.
    assert conn.bytes_acked_total * 8 / 0.1 < 2e9


def test_ignore_rwnd_disregards_peer_window(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000, rcv_buf=4 * 1460)
    cheater = a.connect(b.addr, 7000, ignore_rwnd=True)
    cheater.send_forever()
    sim.run(until=0.05)
    assert cheater.send_window == int(cheater.cwnd)
    # It pushes far beyond the advertised 4-segment window.
    assert cheater.bytes_acked_total > 20 * 1460


def test_max_cwnd_clamp(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000, max_cwnd=5 * 1460)
    conn.send_forever()
    sim.run(until=0.1)
    assert conn.cwnd <= 5 * 1460


def test_cwnd_limited_gate_blocks_growth_when_rwnd_bound(two_hosts):
    """With a small peer window, cwnd parks near 2x the usable window
    instead of growing without bound (Linux's is_cwnd_limited)."""
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000, rcv_buf=8 * 1460)
    conn = a.connect(b.addr, 7000)
    conn.send_forever()
    sim.run(until=0.2)
    assert conn.cwnd <= 4 * 8 * 1460  # parked, not hundreds of MB


def test_pacing_rate_limits_throughput(two_hosts_jumbo):
    sim, topo, a, b, _sw = two_hosts_jumbo
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000, pacing_rate_bps=1e9)
    conn.send_forever()
    sim.run(until=0.1)
    goodput = conn.bytes_acked_total * 8 / 0.1
    assert 0.8e9 < goodput < 1.1e9


def test_sub_mss_window_does_not_deadlock(two_hosts):
    """A receive window below one MSS must still make (slow) progress."""
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000, rcv_buf=700)  # < 1 MSS
    conn = a.connect(b.addr, 7000)
    conn.send(10_000)
    sim.run(until=0.5)
    assert conn.bytes_acked_total > 0


def test_zero_window_stalls_sender(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000, rcv_buf=0)
    conn = a.connect(b.addr, 7000)
    conn.send(10_000)
    sim.run(until=0.1)
    assert conn.bytes_acked_total == 0


def test_window_probe_hook_called(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    samples = []
    conn.window_probe = lambda c: samples.append(c.cwnd)
    conn.send(100_000)
    sim.run(until=0.1)
    assert len(samples) > 10
