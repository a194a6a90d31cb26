"""Unit tests for Timer (lazy restart) and PeriodicTimer."""

import pytest

from repro.sim import PeriodicTimer, Timer
from repro.sim.engine import SimulationError


@pytest.fixture
def fired():
    return []


def make_timer(sim, fired):
    return Timer(sim, lambda: fired.append(sim.now))


def test_timer_fires_once(sim, fired):
    timer = make_timer(sim, fired)
    timer.start(0.5)
    sim.run()
    assert fired == [pytest.approx(0.5)]
    assert not timer.armed


def test_timer_stop_prevents_firing(sim, fired):
    timer = make_timer(sim, fired)
    timer.start(0.5)
    timer.stop()
    sim.run()
    assert fired == []


def test_timer_restart_extends_deadline(sim, fired):
    """Re-arming to a later deadline must postpone the callback — the
    lazy-restart optimisation may keep the old heap event but it must not
    fire early."""
    timer = make_timer(sim, fired)
    timer.start(0.5)
    sim.schedule(0.4, lambda: timer.start(1.0))  # re-arm at t=0.4 to t=1.4
    sim.run()
    assert fired == [pytest.approx(1.4)]


def test_timer_restart_shortens_deadline(sim, fired):
    timer = make_timer(sim, fired)
    timer.start(2.0)
    sim.schedule(0.1, lambda: timer.start(0.1))  # earlier: t=0.2
    sim.run()
    assert fired == [pytest.approx(0.2)]


def test_timer_repeated_restarts_fire_once(sim, fired):
    """The RTO pattern: re-armed on every 'ACK'; fires only after quiet."""
    timer = make_timer(sim, fired)
    timer.start(0.3)
    for i in range(1, 10):
        sim.schedule(i * 0.1, lambda: timer.start(0.3))
    sim.run()
    assert fired == [pytest.approx(0.9 + 0.3)]


def test_timer_stop_then_start_works(sim, fired):
    timer = make_timer(sim, fired)
    timer.start(0.5)
    timer.stop()
    timer.start(0.7)
    sim.run()
    assert fired == [pytest.approx(0.7)]


def test_timer_expires_at(sim, fired):
    timer = make_timer(sim, fired)
    timer.start(1.25)
    assert timer.armed
    assert timer.expires_at == pytest.approx(1.25)
    timer.stop()
    assert timer.expires_at is None


def test_timer_callback_can_rearm(sim, fired):
    timer = Timer(sim, lambda: None)

    def cb():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(0.1)

    timer._callback = cb
    timer.start(0.1)
    sim.run()
    assert fired == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]


# ---------------------------------------------------------------------------
def test_periodic_timer_ticks(sim, fired):
    periodic = PeriodicTimer(sim, 0.25, lambda: fired.append(sim.now))
    periodic.start()
    sim.run(until=1.0)
    assert fired == [pytest.approx(x) for x in (0.25, 0.5, 0.75, 1.0)]


def test_periodic_timer_stop(sim, fired):
    periodic = PeriodicTimer(sim, 0.25, lambda: fired.append(sim.now))
    periodic.start()
    sim.schedule(0.6, periodic.stop)
    sim.run(until=2.0)
    assert len(fired) == 2
    assert not periodic.running


def test_periodic_timer_double_start_is_noop(sim, fired):
    periodic = PeriodicTimer(sim, 0.5, lambda: fired.append(sim.now))
    periodic.start()
    periodic.start()
    sim.run(until=0.5)
    assert len(fired) == 1


def test_periodic_timer_rejects_bad_interval(sim):
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 0.0, lambda: None)


def test_periodic_timer_stop_from_callback(sim, fired):
    periodic = PeriodicTimer(sim, 0.1, lambda: None)

    def cb():
        fired.append(sim.now)
        periodic.stop()

    periodic._callback = cb
    periodic.start()
    sim.run(until=1.0)
    assert len(fired) == 1


@pytest.mark.parametrize("delay", [float("nan"), -1.0])
def test_timer_refused_restart_keeps_the_pending_deadline(sim, fired, delay):
    # Regression: a NaN delay on a timer with a wake-up pending was
    # accepted; expires_at became NaN and the old wake-up still fired
    # the callback at the old deadline.
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    with pytest.raises(SimulationError):
        timer.start(delay)
    assert timer.expires_at == 1.0
    sim.run()
    assert fired == [1.0] and not timer.armed


def test_timer_refused_first_start_stays_disarmed(sim, fired):
    timer = Timer(sim, lambda: fired.append(sim.now))
    with pytest.raises(SimulationError):
        timer.start(float("nan"))
    assert not timer.armed
    sim.run()
    assert fired == []
