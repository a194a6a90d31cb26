"""Topology builders for the paper's experiments (Fig. 7 and §5.2).

* :func:`dumbbell` — Fig. 7a: N sender/receiver pairs across one
  bottleneck link between two switches.
* :func:`parking_lot` — Fig. 7b: a chain of switches, one receiver at the
  end, senders attached along the chain so flows cross different numbers
  of bottlenecks.
* :func:`star` — §5.2: every server on a single switch (the incast,
  stride, shuffle and trace-driven macrobenchmarks).

Routing is static shortest-path, computed once with BFS over the
switch/host graph — the testbed analog of L2 forwarding tables.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..sim.engine import Simulator
from .host import Host
from .switch import Switch

DEFAULT_RATE = 10e9       # 10 GbE
DEFAULT_DELAY = 5e-6      # per-wire propagation


class Topology:
    """A wired collection of hosts and switches with static routing."""

    def __init__(self, sim: Simulator, seed: int = 0):
        self.sim = sim
        self.seed = seed
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        # adjacency: node name -> list of (neighbor name, switch port id or None)
        self._adj: Dict[str, List[Tuple[str, Optional[int]]]] = {}

    # ------------------------------------------------------------------
    def add_host(self, name: str, mtu: int = 9000) -> Host:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        host = Host(self.sim, name, mtu=mtu, seed=self.seed)
        self.hosts[name] = host
        self._adj[name] = []
        return host

    def add_switch(self, name: str, **switch_opts) -> Switch:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        switch = Switch(self.sim, name, seed=self.seed, **switch_opts)
        self.switches[name] = switch
        self._adj[name] = []
        return switch

    def link_host(self, host: Host, switch: Switch,
                  rate_bps: float = DEFAULT_RATE,
                  delay_s: float = DEFAULT_DELAY) -> None:
        """Full-duplex host<->switch wire."""
        nic = host.attach_nic(rate_bps, delay_s)
        nic.connect(switch)
        port = switch.add_port(rate_bps, delay_s, peer=host)
        self._adj[host.name].append((switch.name, None))
        self._adj[switch.name].append((host.name, port))

    def link_switches(self, a: Switch, b: Switch,
                      rate_bps: float = DEFAULT_RATE,
                      delay_s: float = DEFAULT_DELAY) -> None:
        """Full-duplex switch<->switch wire."""
        port_ab = a.add_port(rate_bps, delay_s, peer=b)
        port_ba = b.add_port(rate_bps, delay_s, peer=a)
        self._adj[a.name].append((b.name, port_ab))
        self._adj[b.name].append((a.name, port_ba))

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Populate every switch FIB with BFS shortest-path next hops."""
        for host_name in self.hosts:
            parents = self._bfs(host_name)
            for sw_name, switch in self.switches.items():
                next_hop = parents.get(sw_name)
                if next_hop is None:
                    continue
                port = self._port_toward(sw_name, next_hop)
                if port is not None:
                    switch.set_route(host_name, port)

    def _bfs(self, root: str) -> Dict[str, str]:
        """Map each node to its next hop *toward* ``root``."""
        parents: Dict[str, str] = {}
        seen = {root}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor, _port in self._adj[node]:
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                parents[neighbor] = node
                # Only switches forward; hosts are leaves.
                if neighbor in self.switches:
                    queue.append(neighbor)
        return parents

    def _port_toward(self, sw_name: str, neighbor: str) -> Optional[int]:
        for name, port in self._adj[sw_name]:
            if name == neighbor:
                return port
        return None


# ----------------------------------------------------------------------
# Canonical topologies
# ----------------------------------------------------------------------
def dumbbell(
    sim: Simulator,
    pairs: int = 5,
    rate_bps: float = DEFAULT_RATE,
    mtu: int = 9000,
    seed: int = 0,
    **switch_opts,
) -> Tuple[Topology, List[Host], List[Host]]:
    """Fig. 7a: ``pairs`` senders on one switch, receivers on the other."""
    topo = Topology(sim, seed=seed)
    left = topo.add_switch("sw-left", **switch_opts)
    right = topo.add_switch("sw-right", **switch_opts)
    topo.link_switches(left, right, rate_bps)
    senders, receivers = [], []
    for i in range(pairs):
        sender = topo.add_host(f"s{i + 1}", mtu=mtu)
        receiver = topo.add_host(f"r{i + 1}", mtu=mtu)
        topo.link_host(sender, left, rate_bps)
        topo.link_host(receiver, right, rate_bps)
        senders.append(sender)
        receivers.append(receiver)
    topo.finalize()
    return topo, senders, receivers


def parking_lot(
    sim: Simulator,
    senders: int = 5,
    hops: int = 4,
    rate_bps: float = DEFAULT_RATE,
    mtu: int = 9000,
    seed: int = 0,
    **switch_opts,
) -> Tuple[Topology, List[Host], Host]:
    """Fig. 7b: chain of ``hops`` switches, receiver at the far end.

    Senders are attached round-robin starting from the head of the chain,
    so flows traverse different numbers of bottleneck links.
    """
    if hops < 2:
        raise ValueError("parking lot needs at least 2 switches")
    topo = Topology(sim, seed=seed)
    chain = [topo.add_switch(f"sw{i + 1}", **switch_opts) for i in range(hops)]
    for a, b in zip(chain, chain[1:]):
        topo.link_switches(a, b, rate_bps)
    receiver = topo.add_host("recv", mtu=mtu)
    topo.link_host(receiver, chain[-1], rate_bps)
    sender_hosts = []
    for i in range(senders):
        host = topo.add_host(f"s{i + 1}", mtu=mtu)
        # Attach: first two at the head, the rest spread down the chain.
        attach = chain[max(0, min(i - 1, hops - 2))]
        topo.link_host(host, attach, rate_bps)
        sender_hosts.append(host)
    topo.finalize()
    return topo, sender_hosts, receiver


def star(
    sim: Simulator,
    n_hosts: int,
    rate_bps: float = DEFAULT_RATE,
    mtu: int = 9000,
    seed: int = 0,
    **switch_opts,
) -> Tuple[Topology, List[Host], Switch]:
    """§5.2: all servers on one switch."""
    topo = Topology(sim, seed=seed)
    switch = topo.add_switch("sw", **switch_opts)
    hosts = []
    for i in range(n_hosts):
        host = topo.add_host(f"h{i + 1}", mtu=mtu)
        topo.link_host(host, switch, rate_bps)
        hosts.append(host)
    topo.finalize()
    return topo, hosts, switch
