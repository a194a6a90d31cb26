"""AC/DC TCP reproduction: virtual congestion control enforcement.

Public API tour
---------------
>>> from repro import Simulator, dumbbell, AcdcVswitch, AcdcConfig
>>> sim = Simulator()
>>> topo, senders, receivers = dumbbell(sim, pairs=2)
>>> for host in list(senders) + list(receivers):
...     host.attach_vswitch(AcdcVswitch(host))
>>> # ... start workloads from repro.workloads, then sim.run(until=1.0)

Package layout:

* ``repro.sim`` — discrete-event engine;
* ``repro.net`` — packets, links, shared-buffer switches, hosts,
  topologies;
* ``repro.tcp`` — the guest TCP stack with pluggable congestion control;
* ``repro.core`` — **the paper's contribution**: the AC/DC vSwitch
  datapath (conntrack, DCTCP-in-the-vSwitch, PACK/FACK feedback, RWND
  enforcement, policing, per-flow policy);
* ``repro.workloads`` — iperf/sockperf/FCT applications and the §5.2
  workload generators;
* ``repro.metrics`` — percentiles, fairness, throughput meters, the CPU
  cost model;
* ``repro.faults`` — seeded fault injection on a host's wire (loss,
  corruption, duplication, reordering, delay, link flaps, mid-run
  vSwitch restarts);
* ``repro.experiments`` — one module per paper figure/table, plus the
  chaos robustness sweep.
"""

from .core import (
    AcdcConfig,
    AcdcVswitch,
    FlowPolicy,
    PlainOvs,
    PolicyEngine,
)
from .net import Host, Packet, Switch, Topology, dumbbell, parking_lot, star
from .sim import Simulator
from .tcp import TcpConnection
from .tcp.cc import available as available_cc

__version__ = "1.0.0"

__all__ = [
    "AcdcConfig",
    "AcdcVswitch",
    "FlowPolicy",
    "Host",
    "Packet",
    "PlainOvs",
    "PolicyEngine",
    "Simulator",
    "Switch",
    "TcpConnection",
    "Topology",
    "available_cc",
    "dumbbell",
    "parking_lot",
    "star",
    "__version__",
]
