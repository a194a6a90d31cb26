"""End host: guest TCP endpoints behind a virtual switch.

The packet path mirrors Fig. 3 of the paper.  On egress, a connection's
packet goes through the host's vSwitch datapath (plain OVS or AC/DC),
then onto the wire: the host's fault chain, if any, and the NIC queue.
On ingress, a wire packet is counted, crosses the fault chain, and
passes the vSwitch before being demultiplexed to a connection.  The
vSwitch can rewrite, consume, or inject packets in either direction,
which is exactly the power AC/DC needs (PACK stripping, FACK generation,
RWND rewriting); the FACKs it injects cross the fault chain too.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Tuple

from ..sim.engine import Simulator
from ..sim.rng import RngFactory
from ..tcp.connection import TcpConnection
from .link import HostTxPort
from .packet import Packet, mss_for_mtu

#: Default egress timing noise (seconds).  Real hosts have scheduling and
#: interrupt jitter; a deterministic simulator without it phase-locks
#: flows into periodic patterns where ECN marks land on the same flows
#: every round (breaking DCTCP's fairness).  The jitter is seeded per
#: host, so runs remain reproducible, and is applied monotonically so it
#: can never reorder a host's own packets.
DEFAULT_TX_JITTER = 2e-6

ConnKey = Tuple[str, int, str, int]


class VSwitch(Protocol):
    """Datapath interface a host drives.

    ``egress``/``ingress`` return the (possibly modified) packet, or None
    when the datapath consumed it (policing drop, FACK absorption).
    """

    def egress(self, packet: Packet) -> Optional[Packet]:  # pragma: no cover
        ...

    def ingress(self, packet: Packet) -> Optional[Packet]:  # pragma: no cover
        ...


class Host:
    """A server: address, NIC, optional vSwitch, TCP connections."""

    def __init__(self, sim: Simulator, name: str, mtu: int = 9000,
                 tx_jitter: float = DEFAULT_TX_JITTER, seed: int = 0):
        self.sim = sim
        self.name = name
        self.addr = name
        self.mtu = mtu
        self.mss = mss_for_mtu(mtu)
        self.nic: Optional[HostTxPort] = None
        self.vswitch: Optional[VSwitch] = None
        #: The fault chain on this host's wire (``repro.faults``), or None.
        self.fault_chain = None
        self.connections: Dict[ConnKey, TcpConnection] = {}
        self.listeners: Dict[int, dict] = {}
        self._next_port = 10000
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.tx_jitter = tx_jitter
        self._jitter_rng = RngFactory(seed).stream(f"host:{name}")
        self._egress_clock = 0.0
        # Tenant profile: connection options applied to every endpoint on
        # this host (explicit per-connection options still win).  This is
        # how experiments model adversarial tenants — e.g.
        # ``set_tenant_profile(ignore_rwnd=True)`` or ``ack_division=8``.
        self.default_conn_opts: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_nic(self, rate_bps: float, delay_s: float) -> HostTxPort:
        """Create the host's transmit port; the topology connects its peer."""
        self.nic = HostTxPort(self.sim, rate_bps, delay_s, name=f"{self.name}.nic")
        return self.nic

    def attach_vswitch(self, vswitch: VSwitch) -> None:
        self.vswitch = vswitch

    # ------------------------------------------------------------------
    # TCP API
    # ------------------------------------------------------------------
    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def set_tenant_profile(self, **conn_opts) -> None:
        """Set default connection options for this host's tenant."""
        self.default_conn_opts.update(conn_opts)

    def _apply_profile(self, conn_opts: dict) -> None:
        for key, value in self.default_conn_opts.items():
            conn_opts.setdefault(key, value)
        conn_opts.setdefault("mss", self.mss)

    def connect(self, raddr: str, rport: int, **conn_opts) -> TcpConnection:
        """Active-open a connection to ``raddr:rport``."""
        lport = self.allocate_port()
        self._apply_profile(conn_opts)
        conn = TcpConnection(self.sim, self, self.addr, lport, raddr, rport,
                             **conn_opts)
        self.connections[conn.key()] = conn
        conn.connect()
        return conn

    def listen(self, port: int, on_accept: Optional[Callable[[TcpConnection], None]] = None,
               **conn_opts) -> None:
        """Register a listener; incoming SYNs spawn passive connections."""
        self._apply_profile(conn_opts)
        self.listeners[port] = {"on_accept": on_accept, "opts": conn_opts}

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def output(self, packet: Packet) -> None:
        """Egress from a guest connection toward the wire."""
        if self.vswitch is not None:
            packet = self.vswitch.egress(packet)
            if packet is None:
                return
        self.wire_out(packet)

    def wire_out(self, packet: Packet, stage: int = 0) -> None:
        """Put ``packet`` on the wire past the vSwitch (which injects here
        too): the fault chain's egress stages from ``stage`` on, then the
        NIC.  A held or copied packet re-enters at a later ``stage``."""
        if self.fault_chain is not None:
            packet = self.fault_chain.run(packet, stage, "egress")
            if packet is None:
                return
        if self.nic is None:
            raise RuntimeError(f"{self.name}: NIC not attached")
        self.tx_packets += 1
        self.tx_bytes += packet.size
        when = None
        if self.tx_jitter > 0:
            # uniform(0, jitter), without its frame: one draw per packet.
            when = self.sim.now + self.tx_jitter * self._jitter_rng.random()
            if when < self._egress_clock:
                when = self._egress_clock
            self._egress_clock = when
        # The NIC takes the jittered arrival time; there is no event for it.
        self.nic.enqueue(packet, when)

    def receive(self, packet: Packet, stage: int = 0) -> None:
        """Ingress from the wire: counted, then the fault chain's ingress
        stages from ``stage`` on, then the vSwitch and the guest.  A held
        or copied packet re-enters at a later ``stage``, counted once
        already."""
        if not stage:
            self.rx_packets += 1
            self.rx_bytes += packet.size
        if self.fault_chain is not None:
            packet = self.fault_chain.run(packet, stage, "ingress")
            if packet is None:
                return
        if self.vswitch is not None:
            packet = self.vswitch.ingress(packet)
            if packet is None:
                return
        self.deliver(packet)

    def deliver(self, packet: Packet) -> None:
        """Demultiplex a packet to its guest connection (post-vSwitch)."""
        key = (packet.dst, packet.dport, packet.src, packet.sport)
        conn = self.connections.get(key)
        if conn is None and packet.syn and not packet.ack:
            conn = self._accept(packet)
        if conn is not None:
            conn.handle_packet(packet)

    def _accept(self, syn: Packet) -> Optional[TcpConnection]:
        listener = self.listeners.get(syn.dport)
        if listener is None:
            return None
        conn = TcpConnection(
            self.sim, self, self.addr, syn.dport, syn.src, syn.sport,
            **listener["opts"],
        )
        self.connections[conn.key()] = conn
        if listener["on_accept"] is not None:
            listener["on_accept"](conn)
        return conn
