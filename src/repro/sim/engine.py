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
  nanosecond resolution the paper's testbed could observe.
* The heap stores ``(time, sequence, Event)`` tuples so ordering is
  resolved by C-level tuple comparison (a hot path: a 10 G link moves
  ~10^5 packets per simulated second, one event per packet per hop).
  Events scheduled for the same instant fire in insertion order, making
  runs fully deterministic for a fixed seed.
* Cancellation is O(1): an :class:`Event` is flagged dead and skipped when
  it surfaces — the standard lazy-deletion trick, which keeps timers
  (per-flow RTOs, garbage collectors, inactivity timers) cheap.
* Two allocation-pressure valves sit behind the lazy deletion (see
  DESIGN.md §10):

  - when cancelled corpses exceed half the heap the heap is compacted in
    one O(n) pass (``heap_compactions`` counts these), so a timer-churny
    workload cannot grow the calendar without bound;
  - fired/cancelled :class:`Event` objects are recycled through a small
    free-list instead of being reallocated, but **only** when the engine
    holds the last reference (checked via ``sys.getrefcount``) — a
    caller-held handle is never recycled, so a stale ``cancel()`` can
    never kill an unrelated later event.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, List, Optional, Tuple

#: Compact the heap only once at least this many cancelled events are
#: buried in it (small heaps are not worth an O(n) pass) ...
COMPACT_MIN_CANCELLED = 64
#: ... and only when corpses make up at least this fraction of the heap.
COMPACT_FRACTION = 0.5

#: Upper bound on recycled Event objects retained between schedules.
FREELIST_MAX = 4096

#: ``sys.getrefcount(obj)`` when the run loop's local binding is the sole
#: remaining reference: one for the local, one for the getrefcount argument.
_ONLY_ENGINE_REFS = 2


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Instances are handed back to callers so they can :meth:`cancel` the
    event (e.g. a retransmission timer defused by an ACK).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
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


class PeriodicSource:
    """Fixed-interval batch event source.

    One calendar event per tick regardless of how much work the callback
    batches behind it — the packet tier pays one event per packet per
    hop, while a periodic source amortizes an entire tier's timestep
    (e.g. every fluid background flow in ``repro.fluid``) into a single
    pop.  Tick times are computed from the start time and tick count
    (``start + n*interval``), not by accumulating ``now + interval``, so
    a million ticks cannot drift off the grid and two sources with the
    same phase stay aligned forever.

    Created via :meth:`Simulator.schedule_periodic`; :meth:`stop` cancels
    the pending tick and prevents rescheduling.  Instances hold only
    picklable state (a bound method reaches the heap), so a checkpointed
    run carrying a periodic source restores and resumes on-grid.
    """

    __slots__ = ("sim", "interval", "fn", "start_at", "ticks", "stopped",
                 "_pending")

    def __init__(self, sim: "Simulator", interval: float,
                 fn: Callable[[], Any], start_at: Optional[float] = None):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, "
                                  f"got {interval!r}")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.start_at = sim.now if start_at is None else start_at
        if self.start_at < sim.now:
            raise SimulationError(
                f"cannot start periodic source at {self.start_at!r}, "
                f"clock is already at {sim.now!r}")
        self.ticks = 0
        self.stopped = False
        self._pending: Optional[Event] = sim.schedule_at(
            self.start_at, self._fire)

    def _fire(self) -> None:
        self._pending = None
        self.ticks += 1
        self.fn()
        if not self.stopped:
            self._pending = self.sim.schedule_at(
                self.start_at + self.ticks * self.interval, self._fire)

    def stop(self) -> None:
        """Cancel the pending tick; safe to call more than once."""
        self.stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


class Simulator:
    """Single-threaded discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, hello)          # relative delay
        sim.schedule_at(2.0, goodbye)     # absolute time
        sim.run(until=10.0)
    """

    def __init__(self, strict: Optional[bool] = None) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: Cancelled events still buried in the heap (lazy deletion debt).
        self._cancelled_pending = 0
        #: Times the calendar was compacted to shed cancelled corpses.
        self.heap_compactions = 0
        self._free: List[Event] = []
        # Sanitizer tripwire: scheduling in the past is *always* a hard
        # error (see schedule_at); strict mode additionally audits every
        # popped event against the clock, catching Event.time mutations
        # and heap-discipline bugs that the scheduling check cannot see.
        if strict is None:
            from ..analysis.sanitize import is_enabled  # lazy: no cycle
            strict = is_enabled()
        self._strict = strict

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
        run needs to replay identically.  The free-list is dropped: it
        holds only dead recycled corpses, which are an allocation
        optimisation, not simulation state.
        """
        if self._running:
            raise SimulationError(
                "cannot checkpoint a Simulator from inside run() — "
                "snapshot at an epoch boundary instead")
        state = self.__dict__.copy()
        state["_free"] = []
        return state

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` in ``delay`` s (schedule_at's body, one frame)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        free = self._free
        event = free.pop() if free else Event.__new__(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._sim = self
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        cancelled = self._cancelled_pending
        if (cancelled >= COMPACT_MIN_CANCELLED
                and cancelled >= COMPACT_FRACTION * len(self._heap)):
            self._compact()
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock is already at {self.now!r}"
            )
        free = self._free
        event = free.pop() if free else Event.__new__(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._sim = self
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        cancelled = self._cancelled_pending
        if (cancelled >= COMPACT_MIN_CANCELLED
                and cancelled >= COMPACT_FRACTION * len(self._heap)):
            self._compact()
        return event

    def schedule_periodic(self, interval: float, fn: Callable[[], Any],
                          start_at: Optional[float] = None) -> PeriodicSource:
        """Install a :class:`PeriodicSource` firing ``fn()`` every
        ``interval`` seconds from ``start_at`` (default: now)."""
        return PeriodicSource(self, interval, fn, start_at=start_at)

    def _compact(self) -> None:
        """Rebuild the heap without cancelled corpses (one O(n) pass).

        (time, seq) pairs are preserved, so relative ordering — and with
        it determinism — is unaffected.  The rebuild is **in place**
        (slice assignment): ``run()`` holds a local alias of the heap
        list, so rebinding ``self._heap`` would orphan the running loop.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_pending = 0
        self.heap_compactions += 1

    def _recycle(self, event: Event) -> None:
        """Offer a popped event to the free-list; keep it out of callers'
        hands by recycling only when the engine holds the last reference."""
        if (len(self._free) < FREELIST_MAX
                and sys.getrefcount(event) == _ONLY_ENGINE_REFS + 1):
            # +1: the binding inside this helper adds one reference.
            event.fn = _noop
            event.args = ()
            event._sim = None
            self._free.append(event)

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
        self._running = True
        # Local bindings for the hot loop: each pop otherwise pays several
        # attribute/global lookups, which dominates at ~10^6 events/s.
        heap = self._heap
        heappop = heapq.heappop
        getrefcount = sys.getrefcount
        freelist = self._free
        freelist_append = freelist.append
        strict = self._strict
        processed = 0
        try:
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    self._cancelled_pending -= 1
                    if (len(freelist) < FREELIST_MAX
                            and getrefcount(event) == _ONLY_ENGINE_REFS):
                        event._sim = None
                        freelist_append(event)
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                if strict and time < self.now:
                    raise SimulationError(
                        f"event surfaced at {time!r} behind the clock "
                        f"{self.now!r} (mutated Event.time?)")
                self.now = time
                # Out of the heap: a cancel() from its own callback must
                # not count as a buried corpse.
                event._sim = None
                event.fn(*event.args)
                processed += 1
                if (len(freelist) < FREELIST_MAX
                        and getrefcount(event) == _ONLY_ENGINE_REFS):
                    event.fn = _noop
                    event.args = ()
                    freelist_append(event)
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until

    def step(self) -> bool:
        """Run exactly one pending event.  Returns False if queue is empty."""
        while self._heap:
            time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            if self._strict and time < self.now:
                raise SimulationError(
                    f"event surfaced at {time!r} behind the clock "
                    f"{self.now!r} (mutated Event.time?)")
            self.now = time
            event._sim = None
            event.fn(*event.args)
            self.events_processed += 1
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if drained."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            event = heapq.heappop(heap)[2]
            self._cancelled_pending -= 1
            self._recycle(event)
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled_pending

    def clear(self) -> None:
        """Drop every pending event (used between experiment repetitions)."""
        for _t, _s, event in self._heap:
            event.cancel()
            event._sim = None
        self._heap.clear()
        self._cancelled_pending = 0
