"""Discrete-event simulation engine.

The engine is a classic calendar built on a binary heap.  Everything in the
reproduction (links, switches, TCP endpoints, the AC/DC vSwitch datapath,
applications) schedules callbacks against a single :class:`Simulator`
instance, which owns the virtual clock.

Design notes
------------
* Virtual time is a ``float`` measured in **seconds**.  Datacenter
  experiments span microseconds (propagation) to seconds (flow lifetimes);
  double precision holds ~15 significant digits which is far more than the
  nanosecond resolution the paper's testbed could observe.  A NaN time can
  never be ordered against the clock, so every entry point refuses it.
* The heap stores one ``(time, seq, fn, args)`` tuple per event, so
  ordering is resolved by C-level tuple comparison on ``(time, seq)`` (a
  hot path: a 10 G link moves ~10^5 packets per simulated second, one
  event per packet per hop).  Events scheduled for the same instant fire
  in insertion order, making runs fully deterministic for a fixed seed.
* Two entry shapes share the heap (see DESIGN.md §10):

  - :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` push
    ``(time, seq, fn, args)`` and return nothing.  The link hop, apps,
    generators and faults never cancel, so an event costs them one tuple;
  - :meth:`Simulator.arm_at` pushes ``(time, seq, event, None)`` and
    returns the :class:`Event` handle.  It is the one cancellable path,
    used by timers (RTOs, garbage collectors, periodic ticks).

* Cancellation is O(1): an :class:`Event` is flagged dead and skipped when
  it surfaces — the standard lazy-deletion trick.  ``Event.cancel()``
  keeps an exact count of the corpses still buried in the heap; when they
  exceed half of it the heap is compacted in one O(n) pass
  (``heap_compactions`` counts these), so a timer-churny workload cannot
  grow the calendar without bound.  A handle is never reused, so a stale
  ``cancel()`` can only ever hit its own, already-fired event.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from sys import maxsize
from typing import Any, Callable, List, Optional, Tuple

#: Compact the heap only once at least this many cancelled events are
#: buried in it (small heaps are not worth an O(n) pass) ...
COMPACT_MIN_CANCELLED = 64
#: ... and only when corpses make up at least this fraction of the heap.
COMPACT_FRACTION = 0.5


class Event:
    """A cancellable scheduled callback; returned by :meth:`Simulator.arm_at`.

    Handed back to callers so they can :meth:`cancel` the event (e.g. a
    retransmission timer defused by an ACK).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 sim: "Simulator"):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference while the event sits in its simulator's heap, so
        # cancel() can keep the corpse count exact; cleared when popped.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references early; a cancelled RTO timer otherwise pins its
        # connection (and every buffered segment) until it surfaces.
        self.fn = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._cancelled_pending += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {state}>"


def _noop(*_args: Any) -> None:
    """Replacement callback for cancelled events."""


def _refusal(time: float, now: float) -> "SimulationError":
    """The error for a time that is not at or after the clock (or NaN)."""
    return SimulationError(
        f"cannot schedule at {time!r}, clock is already at {now!r}")


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


class Simulator:
    """Single-threaded discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, hello)          # relative delay
        sim.schedule_at(2.0, goodbye)     # absolute time
        timer = sim.arm_at(1.0, expire)   # cancellable: timer.cancel()
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: ``(time, seq, fn, args)`` entries; an :meth:`arm_at` entry is
        #: ``(time, seq, event, None)``.
        self._heap: List[Tuple[float, int, Any, Optional[tuple]]] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: Cancelled events still buried in the heap (lazy deletion debt).
        self._cancelled_pending = 0
        #: Times the calendar was compacted to shed cancelled corpses.
        self.heap_compactions = 0
        # Sanitizer tripwire: scheduling in the past is *always* a hard
        # error (see schedule_at); strict mode, on when the process-wide
        # sanitizer switch is on at construction, additionally audits
        # every popped event against the clock, catching Event.time
        # mutations and heap-discipline bugs the scheduling check cannot.
        from ..analysis.sanitize import is_enabled  # lazy: no cycle
        self._strict = is_enabled()

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the heap sequence counter)."""
        return self._seq

    # ------------------------------------------------------------------
    # Checkpoint support (repro.recovery)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the calendar: clock, heap (with its exact (time, seq)
        ordering), counters and the strict flag — everything a restored
        run needs to replay identically.
        """
        if self._running:
            raise SimulationError(
                "cannot checkpoint a Simulator from inside run() — "
                "snapshot at an epoch boundary instead")
        return self.__dict__

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` in ``delay`` s (schedule_at's body, one frame)."""
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (self.now + delay, seq, fn, args))
        cancelled = self._cancelled_pending
        if (cancelled >= COMPACT_MIN_CANCELLED
                and cancelled >= COMPACT_FRACTION * len(heap)):
            self._compact()

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if not time >= self.now:  # also refuses NaN
            raise _refusal(time, self.now)
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (time, seq, fn, args))
        cancelled = self._cancelled_pending
        if (cancelled >= COMPACT_MIN_CANCELLED
                and cancelled >= COMPACT_FRACTION * len(heap)):
            self._compact()

    def arm_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Like :meth:`schedule_at`, but return an :class:`Event` handle
        whose ``cancel()`` defuses the callback — the one cancellable
        path (timers)."""
        if not time >= self.now:  # also refuses NaN
            raise _refusal(time, self.now)
        event = Event(time, fn, args, self)
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (time, seq, event, None))
        cancelled = self._cancelled_pending
        if (cancelled >= COMPACT_MIN_CANCELLED
                and cancelled >= COMPACT_FRACTION * len(heap)):
            self._compact()
        return event

    def _compact(self) -> None:
        """Rebuild the heap without cancelled corpses (one O(n) pass).

        (time, seq) pairs are preserved, so relative ordering — and with
        it determinism — is unaffected.  The rebuild is **in place**
        (slice assignment): ``run()`` holds a local alias of the heap
        list, so rebinding ``self._heap`` would orphan the running loop.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[3] is not None or not entry[2].cancelled]
        heapify(heap)
        self._cancelled_pending = 0
        self.heap_compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` passes, or
        ``max_events`` callbacks have fired.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        The clock is left at ``until`` when the time bound was genuinely
        reached (queue drained early, or only later events remain) — but
        **not** when a ``max_events`` break exits with events still due at
        or before ``until``; fast-forwarding past pending events would let
        a subsequent ``run()`` execute them behind the clock.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is None:
            bound = inf
        elif until != until:
            raise SimulationError("run(until=NaN): the bound must be a number")
        else:
            bound = until
        limit = maxsize if max_events is None else max_events
        self._running = True
        # Local bindings for the hot loop: each pop otherwise pays several
        # attribute/global lookups, which dominates at ~10^6 events/s.
        heap = self._heap
        strict = self._strict
        processed = 0
        try:
            while heap:
                time, seq, fn, args = heappop(heap)
                if args is None:  # an arm_at handle
                    if fn.cancelled:
                        self._cancelled_pending -= 1
                        continue
                if time > bound:
                    heappush(heap, (time, seq, fn, args))
                    break
                if strict and time < self.now:
                    raise SimulationError(
                        f"event surfaced at {time!r} behind the clock "
                        f"{self.now!r} (mutated Event.time?)")
                self.now = time
                if args is None:
                    # Out of the heap: a cancel() from its own callback
                    # must not count as a buried corpse.
                    fn._sim = None
                    fn, args = fn.fn, fn.args
                fn(*args)
                processed += 1
                if processed >= limit:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if drained."""
        heap = self._heap
        while heap and heap[0][3] is None and heap[0][2].cancelled:
            heappop(heap)
            self._cancelled_pending -= 1
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled_pending
