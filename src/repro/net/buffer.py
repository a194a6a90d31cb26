"""Shared switch buffer with dynamic per-queue thresholding.

The paper's testbed switch (IBM G8264) has a 9 MB packet buffer shared by
forty-eight 10 G ports and a *dynamic buffer allocation scheme* that the
Fig. 20 experiment deliberately pressures.  We model the standard Dynamic
Threshold (DT) algorithm (Choudhury & Hahne): a queue may grow up to

    limit = alpha * (capacity - total_used)

so a single congested port can claim ``alpha / (1 + alpha)`` of the buffer,
and as more ports congest, each one's share shrinks — exactly the coupling
Fig. 20 exercises by congesting 47 of 48 ports at once.

Occupancy composition (the hybrid-fidelity coupling)
----------------------------------------------------
The fluid tier (``repro.fluid``) does not enqueue packets; it charges its
per-port backlog into the pool as an **overlay**: ``set_overlay`` installs
the fluid bytes for a queue, ``occupancy`` composes packet + fluid bytes
(what WRED sees), and ``free`` subtracts the overlay so DT admission on
the packet path feels fluid pressure exactly as it would feel packets.
Packet-side accounting (``used``, ``queue_bytes``, ``queued_total``) stays
packet-only — the sanitizer's byte-conservation audit is against packets
the datapath actually offered, and composing fluid bytes into it would
make the tripwire fire on correct runs.  With no overlay installed every
composed reading degenerates to its packet-only value, which is what
keeps a zero-background hybrid run byte-identical to pure-packet mode.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

#: The Dynamic Threshold's alpha: one congested queue may claim up to
#: half of the free pool (``alpha / (1 + alpha)``), the G8264's scheme.
DT_ALPHA = 1.0


class Departures:
    """Admitted packets in finish-time order (equal times: push order);
    :meth:`settle` applies those due by now through their port's
    ``_depart``.  One queue per shared buffer, so a settle is O(log
    pending) per departure whatever the port count (DESIGN.md §10).
    A port pushes ``(finish, seq, start, port, packet, nbytes)`` itself,
    inside the one frame of its ``enqueue``."""

    def __init__(self) -> None:
        self.sim = None  # the pool's first port brings the clock
        self._heap: List[tuple] = []
        self._seq = 0
        self._settling = False

    def settle(self) -> None:
        heap = self._heap
        if not heap or heap[0][0] > self.sim.now or self._settling:
            return  # nothing due, or re-entered from a departure hook
        now = self.sim.now
        self._settling = True
        try:
            while heap and heap[0][0] <= now:
                finish, _seq, _start, port, packet, nbytes = heapq.heappop(heap)
                port._depart(packet, nbytes, finish)
        finally:
            self._settling = False

    def waiting(self, port) -> List[int]:
        """Sizes of ``port``'s packets not yet in serialization (a scan)."""
        self.settle()
        return [e[5] for e in self._heap
                if e[3] is port and e[2] > self.sim.now]


class SharedBuffer:
    """Byte-accounted shared memory pool with Dynamic Threshold admission."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity_bytes
        self._used = 0
        #: This pool's ports' settle queue: readers settle, mutators do not.
        self.departures = Departures()
        #: High-water mark of total occupancy, packet + fluid overlay
        #: (telemetry; never read by the DT admission math).
        self.peak_used = 0
        self._queues: Dict[int, int] = {}
        #: Fluid-tier occupancy charged per queue (see module docstring).
        self._overlay: Dict[int, int] = {}
        #: Sum of all overlay charges (kept incrementally: ``free`` is on
        #: the packet tier's per-packet admission path).
        self.overlay_total = 0

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        self.departures.settle()
        return self._used

    def register_queue(self, queue_id: int) -> None:
        self._queues.setdefault(queue_id, 0)

    def queue_bytes(self, queue_id: int) -> int:
        """Packet-tier bytes queued for ``queue_id`` (overlay excluded)."""
        self.departures.settle()
        return self._queues.get(queue_id, 0)

    def occupancy(self, queue_id: int) -> int:
        """Composed occupancy: packet bytes plus any fluid overlay.

        This is the reading the WRED/ECN profile and any congestion
        signal should use — it is what a real shared-memory switch's
        queue-depth register would show with the background load present.
        """
        departures = self.departures
        heap = departures._heap
        # Once per packet per hop: enter the settle only for a due head.
        if heap and heap[0][0] <= departures.sim.now:
            departures.settle()
        return self._queues.get(queue_id, 0) + self._overlay.get(queue_id, 0)

    def overlay_bytes(self, queue_id: int) -> int:
        return self._overlay.get(queue_id, 0)

    @property
    def free(self) -> int:
        return self.capacity - self.used - self.overlay_total

    def queued_total(self) -> int:
        """Sum of all per-queue occupancies (the sanitizer audits this
        against ``used``; they are equal unless accounting leaked)."""
        self.departures.settle()
        return sum(self._queues.values())

    def threshold(self) -> float:
        """Current DT admission limit for any single queue."""
        return DT_ALPHA * self.free

    # ------------------------------------------------------------------
    def try_admit(self, queue_id: int, nbytes: int) -> bool:
        """Admit ``nbytes`` into ``queue_id`` if DT and capacity allow.

        Returns True (and charges the pool) on success, False on a tail
        drop.  Admission compares the queue's *current* length to the
        dynamic threshold, matching the classic DT formulation.
        """
        occupancy = self._queues.setdefault(queue_id, 0)
        free = self.capacity - self._used - self.overlay_total
        if nbytes > free or occupancy + nbytes > DT_ALPHA * free:
            return False
        self._queues[queue_id] = occupancy + nbytes
        self._used += nbytes
        total = self._used + self.overlay_total
        if total > self.peak_used:
            self.peak_used = total
        return True

    def release(self, queue_id: int, nbytes: int) -> None:
        """Return ``nbytes`` from ``queue_id`` to the pool (on dequeue)."""
        occupancy = self._queues.get(queue_id, 0)
        if nbytes > occupancy:
            raise ValueError(
                f"queue {queue_id} releasing {nbytes} B but holds {occupancy} B"
            )
        self._queues[queue_id] = occupancy - nbytes
        self._used -= nbytes

    # ------------------------------------------------------------------
    # Fluid-tier occupancy composition (see module docstring)
    # ------------------------------------------------------------------
    def set_overlay(self, queue_id: int, nbytes: int) -> None:
        """Install the fluid tier's occupancy for ``queue_id``.

        Replaces (not adds to) the queue's previous overlay charge.  The
        caller — the coupling layer — is responsible for capping its
        backlog to what DT admission allows; charging past physical
        capacity is a coupling bug and raises.
        """
        if nbytes < 0:
            raise ValueError(f"overlay must be non-negative, got {nbytes!r}")
        prev = self._overlay.get(queue_id, 0)
        delta = nbytes - prev
        if delta > 0 and self.used + self.overlay_total + delta > self.capacity:
            raise ValueError(
                f"overlay for queue {queue_id} would charge "
                f"{self.used + self.overlay_total + delta}B into a "
                f"{self.capacity}B pool")
        if nbytes:
            self._overlay[queue_id] = nbytes
        else:
            self._overlay.pop(queue_id, None)
        self.overlay_total += delta
        total = self.used + self.overlay_total
        if total > self.peak_used:
            self.peak_used = total
