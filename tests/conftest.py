"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.analysis import sanitize
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
