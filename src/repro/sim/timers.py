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

    Used for the flow-table garbage collector (§4) and metric samplers.
    The first tick is one full interval after :meth:`start`.
    """

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], Any]):
        if not interval > 0:  # also refuses NaN
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        if not self._stopped:
            return
        self._stopped = False
        self._event = self._sim.arm_at(self._sim.now + self.interval,
                                       self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._event = self._sim.arm_at(self._sim.now + self.interval,
                                       self._tick)
