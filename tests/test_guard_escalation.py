"""Unit tests for the escalation ladder (repro.guard.escalation)."""

import random

import pytest

from repro.core import FlowPolicy, PolicyEngine
from repro.core.vswitch_cc import make_vswitch_cc
from repro.guard import EscalationEngine, FlowConformance, GuardConfig, TokenBucket
from repro.guard.escalation import MAX_LEVEL

MSS = 1000
KEY = ("h1", 10000, "h2", 6000)


class FakeEntry:
    """The slice of FlowEntry the escalation engine touches."""

    def __init__(self):
        self.key = KEY
        self.policy = FlowPolicy()
        self.vswitch_cc = make_vswitch_cc("reno", mss=MSS)
        self.vswitch_cc.wnd = 50.0 * MSS
        self.enforced_wnd = 50 * MSS


class MidpointRng:
    """A decay-jitter stream that always draws the middle of its range,
    so a decay deadline is exactly ``decay_base_s * 2**(level - 1)``."""

    def uniform(self, low, high):
        return (low + high) / 2


def make(rng=None):
    cfg = GuardConfig(clean_windows=2, decay_base_s=1.0)
    policy = PolicyEngine()
    events = []

    def notify(kind, entry, **detail):
        events.append((kind, detail))

    eng = EscalationEngine(cfg, MSS, policy, notify)
    entry = FakeEntry()
    fc = FlowConformance(rng if rng is not None else MidpointRng())
    return eng, entry, fc, policy, events


def test_escalate_steps_one_level_with_floor():
    eng, entry, fc, policy, events = make()
    eng.escalate(entry, fc, floor=1, now=0.0, reason="x")
    assert fc.level == 1 and fc.state == "suspect"
    # Violator-grade evidence jumps straight to the floor.
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")
    assert fc.level == 2 and fc.state == "violator"
    eng.escalate(entry, fc, floor=1, now=0.0, reason="x")
    assert fc.level == 3
    # Saturates at MAX_LEVEL, no duplicate event.
    n = len(events)
    eng.escalate(entry, fc, floor=1, now=0.0, reason="x")
    assert fc.level == MAX_LEVEL
    assert len(events) == n


def test_escalate_event_carries_transition_details():
    eng, entry, fc, policy, events = make()
    eng.escalate(entry, fc, floor=2, now=0.0, reason="rwnd_violation_rate")
    kind, detail = events[0]
    assert kind == "guard.escalate"
    assert detail == {"level_from": 0, "level_to": 2,
                      "reason": "rwnd_violation_rate", "state": "violator"}


def test_penalty_clamp_applied_at_level_2():
    eng, entry, fc, policy, events = make()
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")
    penalty = 2 * MSS
    assert entry.vswitch_cc.max_wnd == penalty
    assert entry.vswitch_cc.wnd <= penalty
    assert entry.enforced_wnd <= penalty
    # The clamp is also a first-match policy rule, so a resurrected
    # entry (vSwitch restart) starts clamped too.
    assert policy.policy_for(KEY).max_rwnd == penalty
    assert policy.policy_for(("other", 1, "flow", 2)).max_rwnd is None


def test_penalty_respects_tighter_admin_clamp():
    eng, entry, fc, policy, events = make()
    entry.policy = FlowPolicy(max_rwnd=MSS)  # admin already stricter
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")
    assert policy.policy_for(KEY).max_rwnd == MSS


def test_quarantine_bucket_created_at_level_3():
    eng, entry, fc, policy, events = make()
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")
    assert fc.bucket is None
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")
    assert fc.level == 3
    assert fc.bucket is not None


def test_deescalation_needs_streak_and_decay_deadline():
    eng, entry, fc, policy, events = make()
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")
    assert fc.decay_deadline == 2.0
    # Streak satisfied but deadline (decay_base * 2^(level-1) = 2 s) not.
    eng.note_clean_window(entry, fc, now=0.5)
    eng.note_clean_window(entry, fc, now=1.0)
    assert fc.level == 2
    # Deadline passed but streak was reset by nothing — still counting.
    eng.note_clean_window(entry, fc, now=3.0)
    assert fc.level == 1
    assert events[-1][0] == "guard.deescalate"


def test_deescalation_unwinds_penalty_and_rule():
    eng, entry, fc, policy, events = make()
    saved_max = entry.vswitch_cc.max_wnd
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")
    eng.escalate(entry, fc, floor=2, now=0.0, reason="x")  # level 3
    # Walk all the way back down, one level per sustained clean stretch.
    t = 100.0
    for expected in (2, 1, 0):
        for _ in range(2):  # clean_windows
            t += 10.0
            eng.note_clean_window(entry, fc, now=t)
        assert fc.level == expected
    assert fc.bucket is None
    assert entry.vswitch_cc.max_wnd == saved_max
    assert policy.policy_for(KEY).max_rwnd is None


def test_escalation_resets_clean_streak():
    eng, entry, fc, policy, events = make()
    eng.escalate(entry, fc, floor=1, now=0.0, reason="x")
    eng.note_clean_window(entry, fc, now=0.1)
    assert fc.clean_streak == 1
    eng.escalate(entry, fc, floor=1, now=0.2, reason="x")
    assert fc.clean_streak == 0


def test_decay_deadline_deterministic_per_seeded_stream():
    eng1, entry1, fc1, _, _ = make(random.Random(0))
    eng2, entry2, fc2, _, _ = make(random.Random(0))
    eng1.escalate(entry1, fc1, floor=2, now=0.0, reason="x")
    eng2.escalate(entry2, fc2, floor=2, now=0.0, reason="x")
    assert fc1.decay_deadline == fc2.decay_deadline
    # Jittered within +/-25% of the 2 s base deadline.
    assert 1.5 <= fc1.decay_deadline <= 2.5


def test_token_bucket_rates_and_burst():
    bucket = TokenBucket(rate_bps=8000.0, burst_bytes=500, now=0.0)
    # 1000 bytes/s refill; burst admits 500 bytes instantly.
    assert bucket.consume(500, now=0.0)
    assert not bucket.consume(1, now=0.0)
    # After 0.1 s: 100 bytes of tokens.
    assert bucket.consume(100, now=0.1)
    assert not bucket.consume(100, now=0.1)
    # Tokens cap at the burst size.
    assert not bucket.consume(501, now=10.0)
    assert bucket.consume(500, now=10.0)
