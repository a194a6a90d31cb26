"""Output-queued switch with a shared buffer and WRED/ECN.

Models the paper's IBM G8264: 48 × 10 G ports sharing a 9 MB packet buffer.
Forwarding is by destination address over a static FIB that the topology
builder populates; queueing/marking policy lives in
:class:`~repro.net.link.SwitchTxPort`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.engine import Simulator
from ..sim.rng import RngFactory
from .buffer import SharedBuffer
from .link import Device, SwitchTxPort
from .packet import Packet
from .red import DEFAULT_K_BYTES, EcnMarker

#: The G8264's shared packet buffer.
DEFAULT_BUFFER_BYTES = 9 * 1024 * 1024


class Switch:
    """A store-and-forward switch.

    One :class:`EcnMarker` is shared by all ports (the WRED/ECN profile is
    a switch-wide config in the testbed); buffer accounting is per-port
    against the one :data:`DEFAULT_BUFFER_BYTES` pool.  The marker draws
    its non-ECT drops from a stream named after the switch and seeded by
    the run, as a :class:`~repro.net.host.Host` draws its jitter.
    """

    def __init__(self, sim: Simulator, name: str, ecn_enabled: bool = True,
                 ecn_threshold_bytes: int = DEFAULT_K_BYTES, seed: int = 0):
        self.sim = sim
        self.name = name
        self.shared = SharedBuffer(DEFAULT_BUFFER_BYTES)
        self.marker = EcnMarker(
            enabled=ecn_enabled, threshold_bytes=ecn_threshold_bytes,
            rng=RngFactory(seed).stream(f"red.wred-drop:{name}"))
        self.ports: Dict[int, SwitchTxPort] = {}
        self.fib: Dict[str, int] = {}
        self._next_port = 0
        self.rx_packets = 0
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    def add_port(self, rate_bps: float, delay_s: float,
                 peer: Optional[Device] = None) -> int:
        """Create a new output port; returns its port id."""
        port_id = self._next_port
        self._next_port += 1
        self.ports[port_id] = SwitchTxPort(
            self.sim, rate_bps, delay_s, self.shared, self.marker,
            queue_id=port_id, peer=peer, name=f"{self.name}.p{port_id}",
        )
        return port_id

    def connect_port(self, port_id: int, peer: Device) -> None:
        self.ports[port_id].connect(peer)

    def set_route(self, dst_addr: str, port_id: int) -> None:
        if port_id not in self.ports:
            raise KeyError(f"{self.name}: unknown port {port_id}")
        self.fib[dst_addr] = port_id

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Forward an arriving packet toward its destination."""
        self.rx_packets += 1
        port_id = self.fib.get(packet.dst)
        if port_id is None:
            self.no_route_drops += 1
            return
        self.ports[port_id].enqueue(packet)

    # ------------------------------------------------------------------
    # Counters, in aggregate — the paper reads these off the switch.
    # ------------------------------------------------------------------
    def total_drops(self) -> int:
        return sum(p.stats.dropped_packets for p in self.ports.values())

    def total_tx_packets(self) -> int:
        return sum(p.stats.tx_packets for p in self.ports.values())

    def drop_rate(self) -> float:
        """Switch-wide fraction of forwarded packets that were dropped."""
        sent = self.total_tx_packets()
        dropped = self.total_drops()
        total = sent + dropped
        return dropped / total if total else 0.0
