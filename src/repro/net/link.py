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

from typing import Optional, Protocol

from ..analysis import sanitize
from ..sim.engine import Simulator
from .buffer import Departures, SharedBuffer
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

    Subclasses override :meth:`_admit` / :meth:`_depart` to implement a
    buffering policy.  ``rate_bps`` of 0 means an infinitely fast port
    (useful in unit tests).
    """

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
        #: Settle queue; the ports of one shared buffer share theirs.
        self._departures = Departures(sim)

    # -- policy hooks ---------------------------------------------------
    def _admit(self, packet: Packet, nbytes: int) -> bool:
        """Decide whether the packet may join the queue."""
        return True

    def _serialization_time(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.rate_bps if self.rate_bps else 0.0

    def _depart(self, packet: Packet, nbytes: int, finish: float) -> None:
        """What happens at the instant ``finish`` (run by the settle)."""
        stats = self._stats
        stats.tx_packets += 1
        stats.tx_bytes += nbytes

    # -- public API -------------------------------------------------------
    @property
    def stats(self) -> PortStats:
        self._departures.settle()
        return self._stats

    @property
    def queue_bytes(self) -> int:
        """Bytes admitted whose serialization has not begun."""
        return sum(self._departures.waiting(self))

    @property
    def queue_packets(self) -> int:
        return len(self._departures.waiting(self))

    def connect(self, peer: Device) -> None:
        self.peer = peer

    def enqueue(self, packet: Packet, when: Optional[float] = None) -> bool:
        """Offer a packet arriving at ``when`` (default: now); returns
        False (and counts a drop) if rejected.  One event if admitted."""
        nbytes = packet.size  # read once: the port releases what it admitted
        if not self._admit(packet, nbytes):
            self._stats.dropped_packets += 1
            self._stats.dropped_bytes += nbytes
            return False
        start = self.sim.now if when is None else when
        if start < self._free_at:
            start = self._free_at
        finish = self._free_at = start + self._serialization_time(nbytes)
        self._departures.push(finish, start, self, packet, nbytes)
        if self.peer is not None:
            self.sim.schedule_at(finish + self.delay_s, self._deliver, packet)
        return True

    def _deliver(self, packet: Packet) -> None:
        # Settle first: the packet carries its own departure's INT record.
        self._departures.settle()
        self.peer.receive(packet)


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
        self._departures = shared.departures
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

    def _serialization_time(self, nbytes: int) -> float:
        seconds = TxPort._serialization_time(self, nbytes)
        fluid = self._fluid
        if fluid is not None:
            # Sampled when the packet is offered (DESIGN.md §15).
            seconds *= fluid.service_inflation()
        return seconds

    def _admit(self, packet: Packet, nbytes: int) -> bool:
        # occupancy() settles what is due by now: before the audit's offer.
        qb = self.shared.occupancy(self.queue_id)
        acct = self._accounting
        if acct is not None:
            acct.on_offer(nbytes)
        obs = self._obs
        decision = self.marker.decide(packet, qb)
        if decision.drop or not self.shared.try_admit(self.queue_id, nbytes):
            # A mark-then-drop packet must not count as marked nor carry a
            # CE stamp it never took onto the wire, so the verdict is
            # committed only after shared-buffer admission succeeds.
            if acct is not None:
                acct.on_drop(nbytes)
            if obs is not None:
                obs.on_enqueue(qb, False, False)
            return False
        if decision.marked:
            self.marker.commit_mark(packet)
            self._stats.marked_packets += 1
        if acct is not None:
            acct.check(self.shared, self.sim)
        if obs is not None:
            obs.on_enqueue(qb, True, decision.marked)
        stamper = self._int
        if stamper is not None:
            stamper.on_enqueue(packet, qb)
        return True

    def _depart(self, packet: Packet, nbytes: int, finish: float) -> None:
        # Buffer memory is held until the packet has left the wire, as in
        # a real store-and-forward switch.
        self.shared.release(self.queue_id, nbytes)
        stamper = self._int
        if stamper is not None:
            # The hop record's residence time covers queueing +
            # serialization; tx counters update after this.
            stamper.on_depart(packet, finish)
        acct = self._accounting
        if acct is not None:
            acct.on_release(nbytes)
            acct.check(self.shared, self.sim)
        TxPort._depart(self, packet, nbytes, finish)
