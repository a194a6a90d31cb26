"""Unit tests for measurement collectors."""

import pytest

from repro.metrics import FctRecorder, RttRecorder, ThroughputMeter, WindowLogger
from repro.metrics.collectors import FlowRecord


def test_throughput_meter_series(sim):
    state = {"bytes": 0}

    def feed():
        state["bytes"] += 12_500  # 1 Mb per 10 ms = 100 Mb/s
        sim.schedule(0.01, feed)

    meter = ThroughputMeter(sim, lambda: state["bytes"], interval_s=0.1)
    meter.start()
    sim.schedule(0.0, feed)
    sim.run(until=1.0)
    assert len(meter.series) == 10
    # Steady 10 Mb/s (12.5 KB per 10 ms); per-window counts can be off by
    # one feed due to tick/feed event alignment.
    for _t, bps in meter.series[1:]:
        assert bps == pytest.approx(10e6, rel=0.15)
    mean = sum(bps for _t, bps in meter.series) / len(meter.series)
    assert mean == pytest.approx(10e6, rel=0.1)


def test_throughput_meter_start_offset(sim):
    state = {"bytes": 999}
    meter = ThroughputMeter(sim, lambda: state["bytes"], interval_s=0.1)
    meter.start()  # existing bytes must not count as throughput
    sim.run(until=0.2)
    assert all(bps == 0 for _t, bps in meter.series)


def test_throughput_meter_sample_uses_actual_elapsed(sim):
    """Regression: the rate divides by actual elapsed virtual time, not
    the configured interval — a sample delivered mid-window must not
    halve the reported rate."""
    state = {"bytes": 0}
    meter = ThroughputMeter(sim, lambda: state["bytes"], interval_s=0.1)
    meter.start()

    def early():
        state["bytes"] = 12_500
        meter._sample()  # 12.5 KB over 50 ms = 2 Mb/s

    sim.schedule(0.05, early)
    sim.run(until=0.06)
    ((t, bps),) = meter.series
    assert t == pytest.approx(0.05)
    assert bps == pytest.approx(12_500 * 8 / 0.05)


def test_throughput_meter_zero_elapsed_sample_is_skipped(sim):
    state = {"bytes": 0}
    meter = ThroughputMeter(sim, lambda: state["bytes"], interval_s=0.1)
    meter.start()

    def twice():
        state["bytes"] = 1000
        meter._sample()
        meter._sample()  # same instant: no rate, no division by zero

    sim.schedule(0.05, twice)
    sim.run(until=0.06)
    assert len(meter.series) == 1


def test_throughput_meter_stop_restart_excludes_the_gap(sim):
    """Bytes accrued while the meter is stopped never count, and the
    first post-restart window reports the true rate."""
    state = {"bytes": 0}

    def feed():
        state["bytes"] += 12_500  # 10 Mb/s at one feed per 10 ms
        sim.schedule(0.01, feed)

    meter = ThroughputMeter(sim, lambda: state["bytes"], interval_s=0.1)
    meter.start()
    sim.schedule(0.0, feed)
    sim.schedule(0.05, meter.stop)     # before the first tick
    sim.schedule(0.25, meter.start)    # 200 ms of unmetered feeding
    sim.run(until=0.56)
    assert len(meter.series) == 3      # ticks at 0.35, 0.45, 0.55
    for _t, bps in meter.series:
        assert bps == pytest.approx(10e6, rel=0.15)


def test_window_logger_acdc_and_probe(sim):
    logger = WindowLogger()
    logger.acdc_callback(("a", 1, "b", 2), 0.5, 1000)
    logger.acdc_callback(("a", 1, "b", 2), 0.6, 2000)
    assert logger.samples == {("a", 1, "b", 2): [(0.5, 1000.0),
                                                 (0.6, 2000.0)]}


def test_fct_recorder_lifecycle():
    rec = FctRecorder()
    record = rec.open("mice", 16_384, start=1.0)
    assert rec.completion_fraction("mice") == 0.0
    record.end = 1.5
    assert rec.fcts("mice") == [0.5]
    assert rec.completion_fraction("mice") == 1.0


def test_fct_recorder_label_prefix_filter():
    rec = FctRecorder()
    a = rec.open("mice", 1, 0.0)
    b = rec.open("background", 1, 0.0)
    a.end, b.end = 1.0, 2.0
    assert rec.fcts("mice") == [1.0]
    assert rec.fcts("background") == [2.0]
    assert len(rec.fcts("")) == 2


def test_flow_record_fct_requires_completion():
    record = FlowRecord("x", 1, 0.0)
    with pytest.raises(ValueError):
        _ = record.fct


def test_rtt_recorder_rejects_negative():
    rec = RttRecorder()
    rec.record(0.001)
    with pytest.raises(ValueError):
        rec.record(-0.001)
    assert rec.samples == [0.001]
