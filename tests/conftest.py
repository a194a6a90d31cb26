"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.analysis import sanitize
from repro.faults import Fault
from repro.obs.int import IntEcho
from repro.net.topology import star
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _flight_dumps_in_tmp(tmp_path, monkeypatch):
    """A provoked ``InvariantViolation`` dumps its flight recorder; keep
    those files out of the checkout's ``./.repro-obs/``."""
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))


@contextmanager
def sanitizing(on: bool):
    """Set the one sanitizer switch for what the block builds, then put
    the previous setting back (``None``: the environment decides)."""
    was = sanitize.enable(on)
    try:
        yield
    finally:
        sanitize.enable(was)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def two_hosts(sim):
    """Two hosts on one switch, 10 GbE, 1.5 KB MTU, ECN marking on."""
    topo, hosts, switch = star(sim, 2, mtu=1500, ecn_enabled=True)
    return sim, topo, hosts[0], hosts[1], switch


@pytest.fixture
def three_hosts(sim):
    """Three hosts on one switch: two senders can congest the third's
    downlink (a two-host path is rate-matched and never queues)."""
    topo, hosts, switch = star(sim, 3, mtu=1500, ecn_enabled=True)
    return sim, topo, hosts[0], hosts[1], hosts[2], switch


@pytest.fixture
def two_hosts_jumbo(sim):
    """Two hosts on one switch, 10 GbE, 9 KB MTU, ECN marking on."""
    topo, hosts, switch = star(sim, 2, mtu=9000, ecn_enabled=True)
    return sim, topo, hosts[0], hosts[1], switch


class PacketTrap:
    """A terminal device that records everything it receives."""

    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


@pytest.fixture
def trap():
    return PacketTrap()


class FaultInjector:
    """A vSwitch-shaped filter for deterministic loss/inspection in tests.

    ``drop_egress``/``drop_ingress`` are predicates over (packet, index)
    where the index counts packets seen in that direction.  Dropped and
    passed packets are recorded.
    """

    def __init__(self, drop_egress=None, drop_ingress=None):
        self.drop_egress = drop_egress
        self.drop_ingress = drop_ingress
        self.egress_seen = []
        self.ingress_seen = []
        self.dropped = []

    def egress(self, packet):
        index = len(self.egress_seen)
        self.egress_seen.append(packet)
        if self.drop_egress is not None and self.drop_egress(packet, index):
            self.dropped.append(packet)
            return None
        return packet

    def ingress(self, packet):
        index = len(self.ingress_seen)
        self.ingress_seen.append(packet)
        if self.drop_ingress is not None and self.drop_ingress(packet, index):
            self.dropped.append(packet)
            return None
        return packet


def drain(sim, until=None):
    """Run the simulation to completion (or until a deadline)."""
    sim.run(until=until)


def is_data(pkt) -> bool:
    """Fault matcher: packets carrying payload."""
    return pkt.payload_len > 0


def is_pure_ack(pkt) -> bool:
    """Fault matcher: payload-less non-SYN ACKs (the feedback channel)."""
    return pkt.ack and pkt.payload_len == 0 and not pkt.syn


class IntMangler(Fault):
    """Strip or corrupt in-band telemetry metadata (``repro.obs.int``).

    ``mode="strip"`` removes hop stacks and echo digests outright (a
    middlebox or legacy switch that cannot carry the metadata);
    ``mode="corrupt"`` rewrites them into shape-invalid garbage (header
    damage the checksum does not cover, or a buggy INT implementation).
    Either way the flow itself must be untouched: the sink/view
    validators degrade a mangled stack or echo to a counted, traced
    "no report" — never an exception, never a packet drop.

    Corruption *replaces* the metadata objects instead of mutating
    them: an echo is an immutable tuple that packet duplicates may
    share, and a replaced hop stack leaves a duplicate's copy alone.
    """

    kind = "int_mangle"

    def __init__(self, mode: str = "strip", rate: float = 1.0,
                 seed: int = 0, direction: str = "both",
                 match=None):
        if mode not in ("strip", "corrupt"):
            raise ValueError(f"unknown int-mangle mode {mode!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("mangle rate must be in [0, 1]")
        # Before super(): kind names the rng stream and the fault cause,
        # so the two modes draw independently and are ledgered apart.
        self.kind = f"int_{mode}"
        super().__init__(seed, direction, match)
        self.mode = mode
        self.rate = rate

    def process(self, pkt, pipeline, index, direction):
        if pkt.int_stack is None and pkt.int_echo is None:
            return pkt
        if self.rate < 1.0 and self.rng.random() >= self.rate:
            return pkt
        pipeline.record(self)
        if self.mode == "strip":
            pkt.int_stack = None
            pkt.int_echo = None
            return pkt
        if pkt.int_stack is not None:
            # Negative queue depth on the first hop: arity and types
            # survive, the value range does not — exercises the deep
            # validator, not just the isinstance fast path.
            stack = list(pkt.int_stack)
            rec = stack[0]
            stack[0] = (rec[0], -1.0) + rec[2:]
            pkt.int_stack = stack
        echo = pkt.int_echo
        if echo is not None:
            pkt.int_echo = IntEcho(-1, echo.path, echo.hops, echo.stacks)
        return pkt
