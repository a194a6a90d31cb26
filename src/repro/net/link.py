"""Links and transmit ports.

The wire model is store-and-forward: a transmit port serializes one packet
at a time at the link rate, then the packet propagates for a fixed delay
and is delivered to the device on the far end.  A fixed-rate FIFO knows a
packet's finish time on admission, so a hop is one calendar event; what
happens at the finish instant is settled lazily, before anything reads it
(DESIGN.md §10).  Queueing policy differs by device:

* hosts get an unbounded FIFO (``HostTxPort``) — the testbed's hosts are
  window-limited by TCP and never drop on transmit;
* switches get ``SwitchTxPort``: admission via the shared
  :class:`~repro.net.buffer.SharedBuffer` (dynamic threshold) plus the
  WRED/ECN profile of :class:`~repro.net.red.EcnMarker`.

Counters on every port (packets/bytes sent and dropped) are the stand-in
for the paper's "loss rate (by collecting switch counters)".
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import List, Optional, Protocol

from ..analysis import sanitize
from ..sim.engine import Simulator
from ..taps import bind_tap, init_taps
from .buffer import SharedBuffer
from .packet import Packet
from .red import EcnMarker


#: The port tap vocabulary (DESIGN.md §10); a tap implements any subset,
#: each called with fixed arguments, in attach order:
#:
#: * ``on_offer(nbytes)`` — a packet is offered, before the WRED decision;
#: * ``on_drop(queue_bytes, nbytes)`` — WRED or the shared buffer rejected
#:   it;
#: * ``on_enqueue(packet, queue_bytes, nbytes, marked)`` — it was admitted,
#:   its ECN mark committed;
#: * ``service_inflation() -> factor`` — multiplied into its serialization
#:   time (the fluid coupling, DESIGN.md §15);
#: * ``on_depart(packet, finish, nbytes, tx_bytes)`` — it left the wire
#:   side at ``finish`` (run by the settle; ``tx_bytes`` does not count it
#:   yet).  A port with any such tap hands packets off through
#:   ``_deliver``, so the next hop sees a departed packet.
#:
#: ``queue_bytes`` is the occupancy the packet met.  Two hooks are not pure
#: observers: ``service_inflation`` returns a factor, and the sanitizer's
#: accounting probes may raise ``InvariantViolation``.
PORT_HOOKS = ("on_offer", "on_drop", "on_enqueue", "service_inflation",
              "on_depart")


class Device(Protocol):
    """Anything that can terminate a wire."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class PortStats:
    """Per-port counters, mirroring what one scrapes off a real switch."""

    __slots__ = ("tx_packets", "tx_bytes", "dropped_packets", "dropped_bytes",
                 "marked_packets")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.marked_packets = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of arriving packets dropped at this port."""
        arrived = self.tx_packets + self.dropped_packets
        return self.dropped_packets / arrived if arrived else 0.0


class TxPort:
    """Base transmit port: FIFO at a fixed rate, then propagation.

    As it stands this is the host NIC: it admits everything, and one
    fixed-rate FIFO finishes packets in the order it took them, so its
    departures wait in a plain ``deque``.  :class:`SwitchTxPort` sets
    ``shared``, whose policy :meth:`enqueue` then applies (DESIGN.md §10).
    ``rate_bps`` of 0 means an infinitely fast port (useful in unit tests).
    """

    #: The pool a switch port admits into; a host NIC has none.
    shared: Optional[SharedBuffer] = None
    #: Departure taps (:data:`PORT_HOOKS`); a host NIC takes no taps.
    _on_depart: tuple = ()

    def __init__(self, sim: Simulator, rate_bps: float, delay_s: float,
                 peer: Optional[Device] = None, name: str = "port"):
        if rate_bps < 0 or delay_s < 0:
            raise ValueError("rate and delay must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.peer = peer
        self.name = name
        self._stats = PortStats()
        #: When the serializer finishes the last packet admitted so far.
        self._free_at = 0.0
        #: Host NIC only: ``(finish, start, nbytes)`` of packets not yet
        #: counted as sent, oldest first (a switch port's wait on its
        #: pool's :class:`Departures` heap, merged with its siblings').
        self._fifo: deque = deque()

    # -- departures -------------------------------------------------------
    def _settle(self) -> None:
        """Apply every departure due by now (readers call this first)."""
        fifo, stats, now = self._fifo, self._stats, self.sim.now
        while fifo and fifo[0][0] <= now:
            stats.tx_packets += 1
            stats.tx_bytes += fifo.popleft()[2]

    def _waiting(self) -> List[int]:
        """Sizes of the packets whose serialization has not begun."""
        self._settle()
        now = self.sim.now
        return [nbytes for _finish, start, nbytes in self._fifo
                if start > now]

    # -- public API -------------------------------------------------------
    @property
    def stats(self) -> PortStats:
        self._settle()
        return self._stats

    @property
    def queue_bytes(self) -> int:
        """Bytes admitted whose serialization has not begun."""
        return sum(self._waiting())

    @property
    def queue_packets(self) -> int:
        return len(self._waiting())

    def connect(self, peer: Device) -> None:
        self.peer = peer

    def enqueue(self, packet: Packet, when: Optional[float] = None) -> bool:
        """Offer a packet arriving at ``when`` (default: now); returns
        False (and counts a drop) if rejected.  One event if admitted,
        and one frame: a switch port's policy is the ``shared`` block,
        which calls its rules (occupancy, WRED, DT) and restates none.
        """
        nbytes = packet.size  # read once: the port releases what it admitted
        sim = self.sim
        seconds = nbytes * 8.0 / self.rate_bps if self.rate_bps else 0.0
        shared = self.shared
        if shared is not None:
            # occupancy() settles what is due by now: before the audit's
            # offer.
            qb = shared.occupancy(self.queue_id)
            for tap in self._on_offer:
                tap(nbytes)
            decision = self.marker.decide(packet, qb)
            if decision.drop or not shared.try_admit(self.queue_id, nbytes):
                # A mark-then-drop packet must not count as marked nor
                # carry a CE stamp it never took onto the wire, so the
                # verdict is committed only after shared-buffer admission
                # succeeds.
                for tap in self._on_drop:
                    tap(qb, nbytes)
                self._stats.dropped_packets += 1
                self._stats.dropped_bytes += nbytes
                return False
            if decision.marked:
                self.marker.commit_mark(packet)
                self._stats.marked_packets += 1
            for tap in self._on_enqueue:
                tap(packet, qb, nbytes, decision.marked)
            for inflation in self._service_inflation:
                # Fluid-interleave, sampled as the packet is offered
                # (DESIGN.md §15).
                seconds *= inflation()
        start = sim.now if when is None else when
        if start < self._free_at:
            start = self._free_at
        finish = self._free_at = start + seconds
        if shared is None:
            fifo = self._fifo
            if fifo and fifo[0][0] <= sim.now:
                self._settle()
            fifo.append((finish, start, nbytes))
        else:
            departures = shared.departures
            departures._seq += 1
            heappush(departures._heap,
                     (finish, departures._seq, start, self, packet, nbytes))
        peer = self.peer
        if peer is not None:
            # Departure taps may write to the packet (an INT hop record),
            # so its hand-off settles first; nothing else reads port state.
            sim.schedule_at(finish + self.delay_s,
                            self._deliver if self._on_depart else peer.receive,
                            packet)
        return True


class HostTxPort(TxPort):
    """Host NIC transmit queue: unbounded FIFO (hosts are window-limited)."""


class SwitchTxPort(TxPort):
    """Switch output port: shared-buffer admission + WRED/ECN marking.

    The marking decision uses the queue occupancy *before* the arriving
    packet, consistent with arrival marking on the instantaneous queue.

    Everything optional on a port (the sanitizer's byte accounting,
    telemetry, the INT stamper, a fluid coupling) is a tap on
    :attr:`taps`, called through the :data:`PORT_HOOKS` it implements.
    A **fluid coupling** (``repro.fluid``) carries background flows whose
    bytes never become packets but whose backlog composes into the
    occupancy WRED sees (via :meth:`SharedBuffer.occupancy`) and whose
    arrival rate eats into the serializer (fluid-interleave: packet
    serialization inflates by ``rate / (rate - fluid_rate)``); with an
    idle coupling every composed reading and inflation factor is exactly
    its pure-packet value.
    """

    def __init__(self, sim: Simulator, rate_bps: float, delay_s: float,
                 shared: SharedBuffer, marker: EcnMarker,
                 queue_id: int, peer: Optional[Device] = None,
                 name: str = "swport"):
        super().__init__(sim, rate_bps, delay_s, peer, name)
        shared.departures.sim = sim
        self.shared = shared
        self.marker = marker
        self.queue_id = queue_id
        shared.register_queue(queue_id)
        # The byte-conservation tripwire (repro.analysis.sanitize) is the
        # first tap, decided at construction.
        init_taps(self, PORT_HOOKS, (
            sanitize.PortAccounting(name, queue_id, shared, sim)
            if sanitize.is_enabled() else None,))

    def add_tap(self, tap) -> None:
        """Append ``tap`` (obs, INT, fluid) and bind its PORT_HOOKS."""
        bind_tap(self, PORT_HOOKS, tap)

    def _settle(self) -> None:
        self.shared.departures.settle()

    def _waiting(self) -> List[int]:
        return self.shared.departures.waiting(self)

    def _deliver(self, packet: Packet) -> None:
        departures = self.shared.departures
        heap = departures._heap
        # As in SharedBuffer.occupancy: enter the settle only for a due head.
        if heap and heap[0][0] <= departures.sim.now:
            departures.settle()
        self.peer.receive(packet)

    def _depart(self, packet: Packet, nbytes: int, finish: float) -> None:
        """What happens at the instant ``finish`` (run by the settle)."""
        # Buffer memory is held until the packet has left the wire, as in
        # a real store-and-forward switch.
        self.shared.release(self.queue_id, nbytes)
        stats = self._stats
        for tap in self._on_depart:
            tap(packet, finish, nbytes, stats.tx_bytes)
        stats.tx_packets += 1
        stats.tx_bytes += nbytes
