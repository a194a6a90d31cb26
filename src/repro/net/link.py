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
from .buffer import SharedBuffer
from .packet import Packet
from .red import EcnMarker


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
        stamper = None
        if shared is not None:
            # occupancy() settles what is due by now: before the audit's
            # offer.
            qb = shared.occupancy(self.queue_id)
            acct = self._accounting
            if acct is not None:
                acct.on_offer(nbytes)
            obs = self._obs
            decision = self.marker.decide(packet, qb)
            if decision.drop or not shared.try_admit(self.queue_id, nbytes):
                # A mark-then-drop packet must not count as marked nor
                # carry a CE stamp it never took onto the wire, so the
                # verdict is committed only after shared-buffer admission
                # succeeds.
                if acct is not None:
                    acct.on_drop(nbytes)
                if obs is not None:
                    obs.on_enqueue(qb, False, False)
                self._stats.dropped_packets += 1
                self._stats.dropped_bytes += nbytes
                return False
            if decision.marked:
                self.marker.commit_mark(packet)
                self._stats.marked_packets += 1
            if acct is not None:
                acct.check(shared, sim)
            if obs is not None:
                obs.on_enqueue(qb, True, decision.marked)
            stamper = self._int
            if stamper is not None:
                stamper.on_enqueue(packet, qb)
            if self._fluid is not None:
                # Fluid-interleave, sampled as the packet is offered
                # (DESIGN.md §15).
                seconds *= self._fluid.service_inflation()
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
            # A stamped packet carries its own departure's INT record, so
            # its hand-off settles first; nothing else reads port state.
            sim.schedule_at(finish + self.delay_s,
                            peer.receive if stamper is None else self._deliver,
                            packet)
        return True


class HostTxPort(TxPort):
    """Host NIC transmit queue: unbounded FIFO (hosts are window-limited)."""


class SwitchTxPort(TxPort):
    """Switch output port: shared-buffer admission + WRED/ECN marking.

    The marking decision uses the queue occupancy *before* the arriving
    packet, consistent with arrival marking on the instantaneous queue.

    A port may carry a **fluid coupling** (``repro.fluid``): background
    flows whose bytes never become packets but whose backlog composes
    into the occupancy WRED sees (via :meth:`SharedBuffer.occupancy`)
    and whose arrival rate eats into the serializer (fluid-interleave:
    packet serialization inflates by ``rate / (rate - fluid_rate)``).
    The hook follows the zero-cost-off contract: ``_fluid`` is ``None``
    unless coupled, and with an idle coupling every composed reading and
    inflation factor is exactly its pure-packet value.
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
        # Byte-conservation tripwire (repro.analysis.sanitize): captured
        # at construction so the per-packet cost when off is one None test.
        self._accounting = (
            sanitize.PortAccounting(name, queue_id)
            if sanitize.is_enabled() else None)
        # Telemetry hook (repro.obs.context.PortObs); same one-None-test
        # contract as the sanitizer accounting above.
        self._obs = None
        # Fluid coupling hook (repro.fluid.coupling.FluidPort); same
        # one-None-test contract.
        self._fluid = None
        # In-band telemetry stamper (repro.obs.int.IntStamper); same
        # one-None-test contract.
        self._int = None

    def attach_obs(self, port_obs) -> None:
        """Install the observability hook for this port (see repro.obs)."""
        self._obs = port_obs

    def attach_fluid(self, fluid_port) -> None:
        """Install the fluid-tier coupling for this port (see repro.fluid)."""
        self._fluid = fluid_port

    def attach_int(self, stamper) -> None:
        """Install the INT hop stamper for this port (see repro.obs.int)."""
        self._int = stamper

    def _settle(self) -> None:
        self.shared.departures.settle()

    def _waiting(self) -> List[int]:
        return self.shared.departures.waiting(self)

    def _deliver(self, packet: Packet) -> None:
        self.shared.departures.settle()
        self.peer.receive(packet)

    def _depart(self, packet: Packet, nbytes: int, finish: float) -> None:
        """What happens at the instant ``finish`` (run by the settle)."""
        # Buffer memory is held until the packet has left the wire, as in
        # a real store-and-forward switch.
        self.shared.release(self.queue_id, nbytes)
        stamper = self._int
        if stamper is not None:
            # The hop record's residence time covers queueing +
            # serialization; tx counters update after this.
            stamper.on_depart(packet, finish, nbytes, self._stats.tx_bytes)
        acct = self._accounting
        if acct is not None:
            acct.on_release(nbytes)
            acct.check(self.shared, self.sim)
        stats = self._stats
        stats.tx_packets += 1
        stats.tx_bytes += nbytes
