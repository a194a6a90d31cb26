"""Unit/integration tests for the workload applications."""

import pytest

from repro.metrics import FctRecorder, RttRecorder
from repro.workloads.apps import (
    PROBE_MSG_BYTES,
    BulkSender,
    EchoSink,
    MessageStream,
    PingPong,
    Sink,
)


def test_sink_counts_all_connections(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    sink = Sink(b, 7000)
    for _ in range(3):
        conn = a.connect(b.addr, 7000)
        conn.send(1000)
    sim.run(until=0.1)
    assert sink.bytes_received == 3000


def test_sink_register_for_routes_deliveries(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    sink = Sink(b, 7000)
    got = []
    conn = a.connect(b.addr, 7000)
    sink.register_for(conn, got.append)
    other = a.connect(b.addr, 7000)
    conn.send(5000)
    other.send(700)
    sim.run(until=0.1)
    assert sum(got) == 5000  # only the registered connection's bytes


def test_echo_sink_responds_per_full_request(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    EchoSink(b, 7000)
    got = []
    conn = a.connect(b.addr, 7000)
    conn.on_data = got.append
    conn.send(5 * PROBE_MSG_BYTES // 2)  # 2.5 requests: only 2 echoes
    sim.run(until=0.1)
    assert sum(got) == 2 * PROBE_MSG_BYTES


def test_pingpong_measures_plausible_rtt(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = RttRecorder()
    EchoSink(b, 7000)
    PingPong(sim, a, b.addr, 7000, rec, interval_s=0.001)
    sim.run(until=0.1)
    assert len(rec.samples) > 50
    # Uncongested path: RTT is tens of microseconds.
    assert all(1e-6 < s < 1e-3 for s in rec.samples)


def test_pingpong_warmup_delays_first_sample(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = RttRecorder()
    EchoSink(b, 7000)
    PingPong(sim, a, b.addr, 7000, rec, interval_s=0.001, warmup_s=0.05)
    sim.run(until=0.04)
    assert not rec.samples
    sim.run(until=0.1)
    assert rec.samples


def test_pingpong_pipelined_mode_keeps_sampling(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = RttRecorder()
    EchoSink(b, 7000)
    PingPong(sim, a, b.addr, 7000, rec, interval_s=0.005, pipelined=True)
    sim.run(until=0.1)
    # ~20 requests sent on schedule regardless of responses.
    assert len(rec.samples) >= 15


def test_message_stream_fct_single(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = FctRecorder()
    sink = Sink(b, 7000)
    stream = MessageStream(sim, a, b.addr, 7000, sink, rec, label="m")
    stream.send_message(50_000)
    sim.run(until=0.1)
    records = rec.completed("m")
    assert len(records) == 1
    assert 0 < records[0].fct < 0.01


def test_message_stream_overlapping_messages(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = FctRecorder()
    sink = Sink(b, 7000)
    stream = MessageStream(sim, a, b.addr, 7000, sink, rec, label="m")
    for _ in range(5):
        stream.send_message(10_000)
    sim.run(until=0.1)
    fcts = rec.fcts("m")
    assert len(fcts) == 5
    # Later messages waited behind earlier ones: non-decreasing FCTs.
    assert fcts == sorted(fcts)


def test_message_stream_sequential(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = FctRecorder()
    sink = Sink(b, 7000)
    stream = MessageStream(sim, a, b.addr, 7000, sink, rec, label="seq")
    # Back-to-back sends chained on completion, as TraceDriven sends.
    remaining = [20_000, 30_000]
    stream.on_message_complete = (
        lambda _record: remaining and stream.send_message(remaining.pop(0)))
    stream.send_message(10_000)
    sim.run(until=0.2)
    records = rec.completed("seq")
    assert [r.size_bytes for r in records] == [10_000, 20_000, 30_000]
    # Strictly ordered starts: each begins after the previous completes.
    for earlier, later in zip(records, records[1:]):
        assert later.start >= earlier.end


def test_message_stream_send_every(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = FctRecorder()
    sink = Sink(b, 7000)
    stream = MessageStream(sim, a, b.addr, 7000, sink, rec, label="tick")
    sim.schedule_at(0.0, lambda: stream.send_every(1000, 0.01, until=0.055))
    sim.run(until=0.2)
    assert len(rec.completed("tick")) == 6  # t = 0,10,...,50 ms


def test_message_stream_mid_run_construction(two_hosts):
    """Streams created while the clock is running must work (shuffle)."""
    sim, topo, a, b, _sw = two_hosts
    rec = FctRecorder()
    sink = Sink(b, 7000)

    def later():
        stream = MessageStream(sim, a, b.addr, 7000, sink, rec, label="late")
        stream.send_message(1000)

    sim.schedule(0.05, later)
    sim.run(until=0.2)
    assert len(rec.completed("late")) == 1


def test_message_stream_rejects_empty_message(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    rec = FctRecorder()
    sink = Sink(b, 7000)
    stream = MessageStream(sim, a, b.addr, 7000, sink, rec, label="m")
    with pytest.raises(ValueError):
        stream.send_message(0)


def test_bulk_sender_on_start_hook(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    Sink(b, 7000)
    seen = []
    BulkSender(sim, a, b.addr, 7000, size_bytes=1000,
               on_start=lambda f: seen.append(f.conn))
    sim.run(until=0.05)
    assert len(seen) == 1 and seen[0] is not None


def test_bulk_sender_established_after_its_stop_sends_nothing(two_hosts):
    """Regression: a flow whose handshake completes after ``stop_at``
    scheduled its stop in the past, and the engine's refusal killed the
    whole run."""
    sim, topo, a, b, _sw = two_hosts
    sink = Sink(b, 7000)
    flow = BulkSender(sim, a, b.addr, 7000, stop_at=1e-6)
    sim.run(until=0.05)
    assert flow.conn.closed_at is not None
    assert flow.bytes_acked == 0 and sink.bytes_received == 0
