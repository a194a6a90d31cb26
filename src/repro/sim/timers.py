"""Restartable timers on top of the event engine.

TCP needs a handful of timer idioms — retransmission timers that are
re-armed by every ACK, inactivity timers used by the AC/DC conntrack to
infer timeouts (§3.1 of the paper), and periodic tickers (garbage
collection, throughput sampling).  This module packages them so the
protocol code stays readable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Event, Simulator, _refusal


class Timer:
    """A one-shot, restartable timer.

    ``start`` (re)arms the timer; ``stop`` disarms it.  The callback fires
    at most once per arm.  This is the shape of a TCP RTO timer.

    Restarts are *lazy*: a TCP sender re-arms its RTO on every ACK, so
    instead of cancelling and re-pushing a heap event each time, the timer
    records the new deadline and lets an already-scheduled (earlier) event
    re-check on expiry.  This cuts event-queue churn by an order of
    magnitude on bulk flows.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        #: The deadline while armed, else None.  A plain attribute: the
        #: guest stack tests it once per segment sent.
        self.expires_at: Optional[float] = None

    @property
    def armed(self) -> bool:
        return self.expires_at is not None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer ``delay`` seconds from now."""
        deadline = self._sim.now + delay
        if self._event is None or self._event.cancelled:
            self._event = self._sim.arm_at(deadline, self._fire)
        elif not self._event.time <= deadline:
            # The pending wake-up is too late for the new deadline.  A NaN
            # one lands here too: refuse it before cancelling anything, so
            # a refused start leaves the timer as it was.
            if not deadline >= self._sim.now:
                raise _refusal(deadline, self._sim.now)
            self._event.cancel()
            self._event = self._sim.arm_at(deadline, self._fire)
        # else: the pending event fires early and re-arms for the remainder.
        self.expires_at = deadline

    def stop(self) -> None:
        """Disarm; a stopped timer never fires (its event dies silently)."""
        self.expires_at = None

    def _fire(self) -> None:
        self._event = None
        if self.expires_at is None:
            return  # stopped since scheduling
        if self.expires_at > self._sim.now + 1e-12:
            # Re-armed to a later deadline since this event was pushed.
            self._event = self._sim.arm_at(self.expires_at, self._fire)
            return
        self.expires_at = None
        self._callback()


class PeriodicTimer:
    """Fires ``callback`` every ``interval`` seconds until stopped.

    The one periodic primitive: the flow-table garbage collector (§4),
    the guard watchdog, throughput meters and the fluid stepper.  Tick
    *n* lands at ``origin + n * interval``, computed from the tick count
    rather than by adding ``interval`` to the clock, so the float clock
    cannot drift off the grid (ten 0.05 s steps summed read
    0.49999999999999994; ``10 * 0.05`` reads 0.5).

    :meth:`start` anchors the grid at the current instant and ticks one
    full interval later; ``start(at=t)`` anchors it at ``t`` and ticks at
    ``t`` itself.  A stop and a restart re-anchor.  One calendar event
    per tick, however much work the callback batches behind it.
    """

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], Any]):
        if not interval > 0:  # also refuses NaN
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._event: Optional[Event] = None
        self._origin = 0.0
        self._n = 0

    @property
    def running(self) -> bool:
        return self._event is not None

    def start(self, at: Optional[float] = None) -> None:
        """Anchor the grid and arm the first tick (no-op while running)."""
        if self._event is not None:
            return
        if at is None:
            self._origin, self._n = self._sim.now, 1
        else:
            self._origin, self._n = at, 0
        self._event = self._sim.arm_at(
            self._origin + self._n * self.interval, self._tick)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        event = self._event
        self._callback()
        # Re-arm unless the callback stopped (or stopped and restarted)
        # this timer.
        if self._event is event:
            self._n += 1
            self._event = self._sim.arm_at(
                self._origin + self._n * self.interval, self._tick)
