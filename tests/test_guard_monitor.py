"""Unit tests for the per-flow conformance monitor (repro.guard.monitor).

The monitor is pure bookkeeping over datapath observations, so these
tests drive it with synthetic packets/verdicts — no simulator needed.
"""

import random
from collections import namedtuple

import pytest

from repro.guard import ConformanceMonitor, FlowConformance, GuardConfig
from repro.guard.monitor import (
    ANOMALY_ACK_DIVISION,
    ANOMALY_BLEACH,
    ANOMALY_FEEDBACK_LOSS,
    BLEACH_LOSS_EVENTS,
    CLEAN,
    FEEDBACK_LOSS_BYTES,
    SUSPECT,
    VIOLATOR,
    WINDOW_PACKETS,
    state_for_level,
)
from repro.net.packet import SEQ_MASK

MSS = 1000

Verdict = namedtuple("Verdict", "newly_acked loss_detected")
Pkt = namedtuple("Pkt", "end_seq")


def make():
    mon = ConformanceMonitor(GuardConfig(), mss=MSS)
    fc = FlowConformance(random.Random(0))
    return mon, fc


def test_state_for_level_mapping():
    assert state_for_level(0) == "conforming"
    assert state_for_level(1) == "suspect"
    assert state_for_level(2) == "violator"
    assert state_for_level(3) == "violator"


# ----------------------------------------------------------------------
# Advertised-edge tracking
# ----------------------------------------------------------------------
def test_advertised_edge_is_serial_max():
    mon, fc = make()
    mon.note_advertisement(fc, 1000, 5000)
    assert fc.advertised_edge == 6000
    # A smaller later advertisement never retracts the edge: data sent
    # against the bigger one is still legitimately in flight.
    mon.note_advertisement(fc, 1500, 2000)
    assert fc.advertised_edge == 6000
    mon.note_advertisement(fc, 4000, 5000)
    assert fc.advertised_edge == 9000


def test_advertised_edge_survives_sequence_wrap():
    mon, fc = make()
    near_wrap = SEQ_MASK - 500
    mon.note_advertisement(fc, near_wrap, 2000)
    assert fc.advertised_edge == (near_wrap + 2000) & SEQ_MASK
    # Post-wrap advertisement is serially greater despite a smaller int.
    mon.note_advertisement(fc, 3000, 2000)
    assert fc.advertised_edge == 5000


def test_no_monitoring_before_first_advertisement():
    mon, fc = make()
    violation, overrun = mon.observe_egress(fc, None, Pkt(end_seq=10 ** 6))
    assert (violation, overrun) == (False, 0)
    assert fc.window_packets == 0  # not even counted toward a window


def test_egress_within_edge_is_conforming():
    mon, fc = make()
    mon.note_advertisement(fc, 0, 10 * MSS)
    violation, overrun = mon.observe_egress(fc, None, Pkt(end_seq=10 * MSS))
    assert (violation, overrun) == (False, 0)
    assert fc.window_packets == 1


def test_egress_beyond_edge_reports_overrun_and_violation():
    mon, fc = make()  # default slack: 2 segments
    mon.note_advertisement(fc, 0, 10 * MSS)
    # Past the edge but within slack: overrun reported, not a violation.
    violation, overrun = mon.observe_egress(
        fc, None, Pkt(end_seq=11 * MSS))
    assert violation is False
    assert overrun == MSS
    # Past edge + slack: a monitored violation.
    violation, overrun = mon.observe_egress(
        fc, None, Pkt(end_seq=13 * MSS))
    assert violation is True
    assert overrun == 3 * MSS
    assert fc.window_violations == 1
    assert fc.total_violations == 1


def test_retransmissions_behind_edge_never_violate():
    mon, fc = make()
    mon.note_advertisement(fc, 50 * MSS, 10 * MSS)
    violation, overrun = mon.observe_egress(fc, None, Pkt(end_seq=MSS))
    assert (violation, overrun) == (False, 0)


# ----------------------------------------------------------------------
# Window grading
# ----------------------------------------------------------------------
def grade_window(mon, fc, violations, packets):
    mon.note_advertisement(fc, 0, 10 * MSS)
    for i in range(packets):
        end = 20 * MSS if i < violations else MSS
        mon.observe_egress(fc, None, Pkt(end_seq=end))
    return mon.close_window(fc)


def test_close_window_not_full_returns_none():
    mon, fc = make()
    assert grade_window(mon, fc, 0, WINDOW_PACKETS - 1) is None


@pytest.mark.parametrize("violations,expected", [
    (0, CLEAN), (1, CLEAN), (2, SUSPECT), (3, SUSPECT), (4, VIOLATOR),
    (8, VIOLATOR),
])
def test_close_window_grades_by_violation_rate(violations, expected):
    # Suspect at >= 25%, violator at >= 50% of the window; ``violations``
    # are eighths of it.
    mon, fc = make()
    eighth = WINDOW_PACKETS // 8
    assert grade_window(mon, fc, violations * eighth,
                        WINDOW_PACKETS) == expected
    # Grading resets the window counters.
    assert fc.window_packets == 0
    assert fc.window_violations == 0


# ----------------------------------------------------------------------
# ACK-side anomalies
# ----------------------------------------------------------------------
def test_feedback_loss_raised_after_threshold_bytes():
    mon, fc = make()
    full, rest = divmod(FEEDBACK_LOSS_BYTES, MSS)
    # Exactly the threshold without a report: not yet feedback-dead.
    for acked in [MSS] * full + [rest]:
        assert mon.observe_ack(fc, Verdict(acked, False), 0, 0) == []
    assert fc.acked_since_feedback == FEEDBACK_LOSS_BYTES
    assert mon.observe_ack(fc, Verdict(MSS, False), 0, 0) == [
        ANOMALY_FEEDBACK_LOSS]


def test_feedback_delta_resets_loss_accumulator():
    mon, fc = make()
    for _ in range(FEEDBACK_LOSS_BYTES // MSS):
        mon.observe_ack(fc, Verdict(MSS, False), 0, 0)
    mon.observe_ack(fc, Verdict(MSS, False), total_delta=MSS, marked_delta=0)
    assert fc.acked_since_feedback == 0
    assert mon.observe_ack(fc, Verdict(MSS, False), 0, 0) == []


def test_feedback_loss_suppressed_once_fallback_active():
    mon, fc = make()
    fc.fallback_active = True
    for _ in range(FEEDBACK_LOSS_BYTES // MSS + 10):
        assert mon.observe_ack(fc, Verdict(MSS, False), 0, 0) == []


def test_bleach_needs_working_feedback_channel():
    mon, fc = make()
    # Losses with a channel that never reported anything: that is the
    # feedback-loss case, not bleaching.
    for _ in range(BLEACH_LOSS_EVENTS + 2):
        assert ANOMALY_BLEACH not in mon.observe_ack(
            fc, Verdict(MSS, True), 0, 0)
    assert fc.loss_zero_mark == 0


def test_bleach_fires_on_losses_with_zero_marks_and_rearms():
    mon, fc = make()
    mon.observe_ack(fc, Verdict(MSS, False), total_delta=MSS, marked_delta=0)
    # Counter re-armed after each firing: persistence keeps firing.
    for _ in range(2):
        for _ in range(BLEACH_LOSS_EVENTS - 1):
            assert mon.observe_ack(fc, Verdict(MSS, True), 0, 0) == []
        assert mon.observe_ack(fc, Verdict(MSS, True), 0, 0) == [
            ANOMALY_BLEACH]


def test_single_marked_byte_disarms_bleach_forever():
    mon, fc = make()
    mon.observe_ack(fc, Verdict(MSS, False), total_delta=MSS, marked_delta=1)
    for _ in range(BLEACH_LOSS_EVENTS + 2):
        assert mon.observe_ack(fc, Verdict(MSS, True), 0, 0) == []


def test_timeouts_feed_the_bleach_detector():
    mon, fc = make()
    mon.observe_ack(fc, Verdict(MSS, False), total_delta=MSS, marked_delta=0)
    for _ in range(BLEACH_LOSS_EVENTS - 1):
        assert mon.observe_timeout(fc) == []
    assert mon.observe_timeout(fc) == [ANOMALY_BLEACH]


def test_ack_division_detected_over_a_window_of_acks():
    mon, fc = make()
    # A window of ACKs, 5/8 of them slivers (< 250 bytes): rate >= 0.5.
    anomalies = []
    for i in range(WINDOW_PACKETS):
        acked = 100 if i < WINDOW_PACKETS * 5 // 8 else MSS
        anomalies += mon.observe_ack(fc, Verdict(acked, False), MSS, 0)
    assert anomalies == [ANOMALY_ACK_DIVISION]
    assert fc.ack_count == 0  # window reset


def test_full_mss_acks_never_flag_division():
    mon, fc = make()
    for _ in range(2 * WINDOW_PACKETS + 4):
        assert ANOMALY_ACK_DIVISION not in mon.observe_ack(
            fc, Verdict(MSS, False), MSS, 0)
