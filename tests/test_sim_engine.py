"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import sanitizing
from reference.calendar import Calendar

from repro.sim import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.events_processed == 0


def test_schedule_relative_and_absolute(sim):
    fired = []
    sim.schedule(1.5, fired.append, "rel")
    sim.schedule_at(1.0, fired.append, "abs")
    sim.run()
    assert fired == ["abs", "rel"]
    assert sim.now == 1.5


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (0.3, 0.1, 0.2):
        sim.schedule(delay, order.append, delay)
    sim.run()
    assert order == [0.1, 0.2, 0.3]


def test_same_time_events_fire_in_insertion_order(sim):
    order = []
    for tag in "abcde":
        sim.schedule_at(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_scheduling_in_the_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_nan_time_rejected(sim):
    """A NaN time cannot be ordered against the clock: at the parent it
    fired ahead of an earlier event and set ``sim.now`` to NaN."""
    nan = float("nan")
    seen = []
    sim.schedule_at(0.1, lambda: seen.append(sim.now))
    for push in (lambda: sim.schedule_at(nan, lambda: seen.append(sim.now)),
                 lambda: sim.schedule(nan, lambda: seen.append(sim.now)),
                 lambda: sim.arm_at(nan, lambda: seen.append(sim.now))):
        with pytest.raises(SimulationError):
            push()
    assert sim.events_scheduled == 1
    sim.run()
    assert seen == [0.1]


def test_run_until_nan_rejected(sim):
    fired = []
    sim.schedule_at(5.0, fired.append, "later")
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    # The bound was refused, not ignored: nothing ran, the clock held.
    assert fired == [] and sim.now == 0.0 and sim.pending() == 1
    sim.run(until=1.0)
    assert sim.now == 1.0


def test_periodic_nan_interval_rejected(sim):
    from repro.sim import PeriodicTimer
    with pytest.raises(SimulationError):
        sim.schedule_periodic(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        PeriodicTimer(sim, float("nan"), lambda: None)
    assert sim.pending() == 0


def test_run_until_is_inclusive(sim):
    fired = []
    sim.schedule_at(2.0, fired.append, "edge")
    sim.schedule_at(2.0001, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["edge"]
    assert sim.now == 2.0


def test_run_until_advances_clock_even_if_queue_drains(sim):
    sim.schedule(0.5, lambda: None)
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_late_event_survives_run_until(sim):
    fired = []
    sim.schedule_at(5.0, fired.append, "later")
    sim.run(until=1.0)
    assert fired == []
    sim.run()
    assert fired == ["later"]


def test_cancellation(sim):
    fired = []
    sim.schedule(1.0, fired.append, "keep")
    drop = sim.arm_at(1.0, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert drop.cancelled


def test_cancel_is_idempotent(sim):
    event = sim.arm_at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(0.1, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_max_events_limits_execution(sim):
    for i in range(10):
        sim.schedule(i * 0.1, lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4
    assert sim.pending() == 6


def test_step_runs_one_event(sim):
    fired = []
    sim.schedule(0.1, fired.append, 1)
    sim.schedule(0.2, fired.append, 2)
    sim.run(max_events=1)
    assert fired == [1] and sim.events_processed == 1
    sim.run(max_events=1)
    sim.run(max_events=1)                # the queue is drained: a no-op
    assert fired == [1, 2] and sim.events_processed == 2


def test_peek_time_skips_cancelled(sim):
    first = sim.arm_at(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    first.cancel()
    assert sim.peek_time() == pytest.approx(0.2)


def test_peek_time_empty(sim):
    assert sim.peek_time() is None


def test_pending_is_exact_under_cancels(sim):
    """``pending()`` is ``len(heap) - corpses``: it must agree with a scan
    through cancels, double cancels, cancels of fired events and an event
    cancelling itself from its own callback (bounded and one-event runs)."""
    def scan():
        return sum(1 for _t, _s, fn, args in sim._heap
                   if args is not None or not fn.cancelled)

    handles = {}
    handles["self"] = sim.arm_at(0.1, lambda: handles["self"].cancel())
    handles["step"] = sim.arm_at(0.2, lambda: handles["step"].cancel())
    doomed = [sim.arm_at(0.5 + i, lambda: None) for i in range(3)]
    fired = sim.arm_at(0.05, lambda: None)
    doomed[0].cancel()
    doomed[0].cancel()
    assert sim.pending() == scan() == 5
    sim.run(until=0.15)
    fired.cancel()                       # already fired: not in the heap
    assert sim.pending() == scan() == 3
    sim.run(max_events=1)                # the self-cancelling one
    assert sim.events_processed == 3
    assert sim.pending() == scan() == 2
    sim.run()
    assert sim.pending() == scan() == 0


def test_run_is_not_reentrant(sim):
    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.1, nested)
    sim.run()


def test_max_events_break_does_not_fast_forward_clock(sim):
    # Regression: the until fast-forward used to fire on *any* exit, so a
    # max_events break jumped the clock past still-pending events.
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run(until=5.0, max_events=4)
    assert sim.now == pytest.approx(0.4)
    assert sim.pending() == 6
    sim.run(until=5.0)
    assert sim.pending() == 0
    assert sim.now == 5.0


def test_max_events_break_then_strict_resume():
    # With the old fast-forward, a strict-mode resume raised ("event
    # surfaced behind the clock"); events must instead run in order.
    with sanitizing(True):
        sim = Simulator()
    fired = []
    for i in range(6):
        sim.schedule_at(0.1 * (i + 1), fired.append, i)
    sim.run(until=2.0, max_events=2)
    assert fired == [0, 1]
    sim.run(until=2.0)
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 2.0


def test_max_events_exhausting_queue_still_fast_forwards(sim):
    # When max_events happens to drain the queue, the until bound was
    # genuinely reached and the throughput-denominator contract holds.
    for i in range(3):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run(until=5.0, max_events=3)
    assert sim.now == 5.0


def test_fast_forward_skips_only_beyond_bound_events(sim):
    sim.schedule_at(7.0, lambda: None)
    sim.run(until=5.0, max_events=10)
    # The only pending event lies beyond the bound: fast-forward is safe.
    assert sim.now == 5.0


def test_heap_compaction_sheds_cancelled_corpses(sim):
    from repro.sim.engine import COMPACT_MIN_CANCELLED
    keep = [sim.schedule_at(10.0 + i, lambda: None) for i in range(4)]
    corpses = [sim.arm_at(20.0 + i, lambda: None)
               for i in range(4 * COMPACT_MIN_CANCELLED)]
    for event in corpses:
        event.cancel()
    assert sim.heap_compactions == 0
    sim.schedule_at(1.0, lambda: None)  # push triggers the compaction check
    assert sim.heap_compactions == 1
    assert len(sim._heap) == len(keep) + 1
    assert sim.pending() == len(keep) + 1
    sim.run()
    assert sim.events_processed == len(keep) + 1


def test_heap_compaction_preserves_order_and_determinism():
    import random
    rng = random.Random(7)
    a, b = Simulator(), Simulator()
    logs = [], []
    for s, log in zip((a, b), logs):
        events = []
        for i in range(2000):
            if events and rng.random() < 0.6:
                events.pop(rng.randrange(len(events))).cancel()
            else:
                events.append(s.arm_at(rng.uniform(0, 1), log.append, i))
        rng = random.Random(7)  # same choices for both simulators
        s.run()
    assert logs[0] == logs[1]
    assert a.heap_compactions == b.heap_compactions


def test_fired_handle_late_cancel_never_defuses_a_later_event(sim):
    fired = []
    held = sim.arm_at(0.1, fired.append, "held")
    sim.run()
    assert fired == ["held"]
    # A late cancel() on a fired handle must not defuse an unrelated
    # later event, nor count a corpse that is not in the heap.
    other = sim.arm_at(1.0, fired.append, "other")
    held.cancel()
    assert sim.pending() == 1
    sim.run()
    assert fired == ["held", "other"]
    assert not other.cancelled


def test_cancelled_pending_counter_stays_exact(sim):
    events = [sim.arm_at(1.0 + i, lambda: None) for i in range(10)]
    for event in events[:5]:
        event.cancel()
        event.cancel()  # idempotent: counted once
    assert sim._cancelled_pending == 5
    sim.run()
    assert sim._cancelled_pending == 0


def test_determinism_across_instances():
    def build(s):
        log = []
        for i in range(100):
            s.schedule((i * 37 % 11) * 0.01, log.append, i)
        return log

    a, b = Simulator(), Simulator()
    la, lb = build(a), build(b)
    a.run()
    b.run()
    assert la == lb


# ---------------------------------------------------------------------------
# PeriodicSource: grid-aligned batch event source
# ---------------------------------------------------------------------------
def test_periodic_source_fires_on_grid(sim):
    times = []
    source = sim.schedule_periodic(0.1, lambda: times.append(sim.now))
    sim.run(until=0.55)
    assert times == [pytest.approx(0.1 * i) for i in range(6)]
    assert source.ticks == 6


def test_periodic_source_does_not_drift(sim):
    """Tick times come from start + n*interval, not accumulation: after
    many ticks of an inexact-binary interval, the clock is still the
    exact product, not a sum of rounding errors."""
    source = sim.schedule_periodic(1e-4, lambda: None)
    sim.run(until=1.0)
    assert source.ticks == 10_001
    assert sim.now == (source.ticks - 1) * 1e-4


def test_periodic_source_stop_cancels_pending(sim):
    count = [0]

    def tick():
        count[0] += 1
        if count[0] == 3:
            source.stop()

    source = sim.schedule_periodic(0.1, tick)
    sim.run()
    assert count[0] == 3
    assert source.stopped
    source.stop()  # idempotent


def test_periodic_source_start_at(sim):
    times = []
    sim.schedule_periodic(0.1, lambda: times.append(sim.now), start_at=0.25)
    sim.run(until=0.5)
    assert times == [pytest.approx(0.25), pytest.approx(0.35),
                     pytest.approx(0.45)]


def test_periodic_source_rejects_bad_args(sim):
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, lambda: None)
    sim.schedule(0.0, lambda: None)
    sim.run()
    sim.schedule_at(1.0, lambda: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.1, lambda: None, start_at=0.5)


# ---------------------------------------------------------------------------
# Differential: the engine against a sorted-list reference calendar
# ---------------------------------------------------------------------------
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])
OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at", "arm"]),
              DELAYS, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("burst"), st.integers(1, 80), DELAYS),
    st.tuples(st.just("run"), st.none() | DELAYS,
              st.sampled_from([None, 0, 1, 3])),
    st.tuples(st.just("peek")),
), max_size=40)


def drive(cal, ops):
    """Apply ``ops`` to ``cal`` (a Simulator or the reference); return
    everything an observer sees: firings with their clock, and after
    each op the clock, both counters, pending() and the op's answer."""
    seen, handles = [], {}

    def fire(tag, follow_up):
        seen.append(("fire", tag, cal.now))
        if tag in handles and follow_up:
            handles[tag].cancel()          # cancel from its own callback
        elif follow_up:
            cal.schedule(0.25, fire, (tag, "next"), False)

    for i, op in enumerate(ops):
        kind, answer = op[0], None
        if kind == "schedule":
            cal.schedule(op[1], fire, i, op[2])
        elif kind == "schedule_at":
            cal.schedule_at(cal.now + op[1], fire, i, op[2])
        elif kind == "arm":
            handles[i] = cal.arm_at(cal.now + op[1], fire, i, op[2])
        elif kind == "cancel" and handles:
            # Pending, fired or cancelled alike: double cancels
            # and cancels after firing must both be no-ops.
            handles[list(handles)[op[1] % len(handles)]].cancel()
        elif kind == "burst":
            burst = [cal.arm_at(cal.now + op[2], fire, (i, k), False)
                     for k in range(op[1])]
            for handle in burst:
                handle.cancel()
            handles[i] = burst[0]
        elif kind == "run":
            until = None if op[1] is None else cal.now + op[1]
            cal.run(until=until, max_events=op[2])
        elif kind == "peek":
            answer = cal.peek_time()
        seen.append((kind, answer, cal.now, cal.events_processed,
                     cal.events_scheduled, cal.pending()))
    return seen


@settings(max_examples=200, deadline=None)
@given(OPS)
@example([("arm", 1.0, False), ("burst", 80, 0.5), ("schedule", 0.0, True),
          ("run", 0.25, None), ("arm", 0.0, True), ("run", None, None)])
def test_engine_matches_reference_calendar(ops):
    """Same firing order and clock, same ``events_processed``,
    ``events_scheduled`` and ``pending()`` after every op, through
    cancels (double, after firing, from the event's own callback),
    bounded and event-limited runs, peeks and the heap
    compactions a burst of cancels sets off."""
    assert drive(Simulator(), ops) == drive(Calendar(), ops)
