"""Shared experiment plumbing.

Every experiment in §5 compares (a subset of) three configurations:

* **CUBIC** — host CUBIC, plain OVS, switch WRED/ECN *off*;
* **DCTCP** — host DCTCP (ECN on), plain OVS, switch WRED/ECN *on*;
* **AC/DC** — host stack varies (CUBIC unless stated), AC/DC in the
  vSwitch, switch WRED/ECN *on*.

:class:`Scheme` captures one such configuration; :func:`attach_vswitches`
instantiates the right datapath on every host; :class:`Testbed` is the
one place a :class:`~repro.experiments.scenario.Scenario` is wired into
a run (DESIGN.md §4, "How a run is assembled") and :class:`RunResult`
what it hands back.  The scaling constants
centralise the simulator's time/size scaling so EXPERIMENTS.md can cite
one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional)

from ..core import AcdcConfig, AcdcVswitch, PlainOvs, PolicyEngine
from ..fluid import FluidTier
from ..metrics import RttRecorder, ThroughputMeter, jain_index, summarize
from ..net.host import Host
from ..net.topology import dumbbell, parking_lot, star
from ..sim import Simulator
from ..workloads.apps import BulkSender, EchoSink, PingPong, Sink

if TYPE_CHECKING:  # pragma: no cover
    from ..guard import Guard
    from .scenario import Flow, Scenario

DATA_PORT = 5000
RTT_PROBE_PORT = 6000

# ---------------------------------------------------------------------------
# Scheme definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One end-to-end configuration of host stack + vSwitch + switch ECN."""

    name: str
    host_cc: str = "cubic"
    host_ecn: bool = False
    vswitch: str = "plain"        # "plain" | "acdc"
    switch_ecn: bool = False

    def conn_opts(self) -> dict:
        """Connection options for guest endpoints under this scheme."""
        return {"cc": self.host_cc, "ecn": self.host_ecn}

    def with_host_cc(self, cc: str, ecn: Optional[bool] = None) -> "Scheme":
        """Same datapath, different guest stack (Table 1 rows)."""
        if ecn is None:
            ecn = cc == "dctcp"
        return replace(self, name=f"{self.name}+{cc}", host_cc=cc, host_ecn=ecn)


#: The paper's three baseline configurations (§5 "Experiment details").
CUBIC = Scheme("cubic", host_cc="cubic", host_ecn=False,
               vswitch="plain", switch_ecn=False)
DCTCP = Scheme("dctcp", host_cc="dctcp", host_ecn=True,
               vswitch="plain", switch_ecn=True)
ACDC = Scheme("acdc", host_cc="cubic", host_ecn=False,
              vswitch="acdc", switch_ecn=True)

ALL_SCHEMES = (CUBIC, DCTCP, ACDC)

#: Name -> Scheme, for cells whose plain-JSON kwargs name a scheme
#: (see repro.runtime.spec).
SCHEME_BY_NAME = {s.name: s for s in ALL_SCHEMES}


def attach_vswitches(
    scheme: Scheme,
    hosts: Iterable[Host],
    acdc_config: Optional[AcdcConfig] = None,
    policy: Optional[PolicyEngine] = None,
    window_cb=None,
    guards: Optional[Mapping[str, "Guard"]] = None,
    obs=None,
) -> Dict[str, object]:
    """Instantiate the scheme's datapath on every host.

    ``guards`` maps a host address to the :class:`repro.guard.Guard` its
    AC/DC vSwitch takes (a Guard binds to exactly one datapath).
    ``obs``, if given, is the run's :class:`repro.obs.ObsContext`; each
    AC/DC vSwitch registers with it and traces onto its bus.

    Returns ``{host addr: vswitch}`` so experiments can read flow tables,
    op counters and enforcement stats afterwards.
    """
    out: Dict[str, object] = {}
    for host in hosts:
        if scheme.vswitch == "acdc":
            config = acdc_config if acdc_config is not None else AcdcConfig()
            vsw = AcdcVswitch(host, config=config, policy=policy,
                              window_cb=window_cb,
                              guard=(guards or {}).get(host.addr), obs=obs)
        else:
            vsw = PlainOvs(host)
        host.attach_vswitch(vsw)
        out[host.addr] = vsw
    return out


# ---------------------------------------------------------------------------
# Scaling constants (substitutions relative to the testbed; see DESIGN.md §5
# and the per-experiment notes in EXPERIMENTS.md)
# ---------------------------------------------------------------------------

#: Microbenchmarks run at the testbed's line rate.
MICRO_RATE = 10e9
#: Macrobenchmarks (17-host star, all-to-all patterns) run at 1 GbE so a
#: Python simulator can cover them; the marking threshold scales with rate.
MACRO_RATE = 1e9
#: DCTCP marking threshold at 10 G (K = 65 1.5 KB frames, §2.1 of DCTCP).
K_BYTES_10G = 65 * 1500
#: At 1 G the DCTCP guidance is K ≈ 20 frames.
K_BYTES_1G = 20 * 1500

#: Virtual-time budget for "long-lived" microbenchmark flows (the paper
#: runs 20 s x 10 repetitions; shape converges within a second here).
MICRO_DURATION = 1.0
#: Repetitions for the run-to-run variation figures (paper: 10).
MICRO_RUNS = 5


def k_bytes_for_rate(rate_bps: float) -> int:
    """Marking threshold matched to the link rate (testbed guidance)."""
    if rate_bps >= 5e9:
        return K_BYTES_10G
    return K_BYTES_1G


def switch_opts(scheme: Scheme, rate_bps: float = MICRO_RATE) -> dict:
    """kwargs for the topology builders' switches under this scheme."""
    return {
        "ecn_enabled": scheme.switch_ecn,
        "ecn_threshold_bytes": k_bytes_for_rate(rate_bps),
    }


# ---------------------------------------------------------------------------
# Assembling and harvesting one run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Common observables of one run."""

    scheme: str
    duration: float
    tputs_bps: List[float] = field(default_factory=list)
    rtt_samples: List[float] = field(default_factory=list)
    drop_rate: float = 0.0
    vswitches: Dict[str, object] = field(default_factory=dict)
    flows: List[BulkSender] = field(default_factory=list)
    #: Per-flow throughput meters; populated only when a runner is asked
    #: for them (``tput_meters=True``), empty otherwise — so ``.meters``
    #: is safe to read on any runner's result.
    meters: List[ThroughputMeter] = field(default_factory=list)
    sim: Optional[Simulator] = None
    topology: Optional[object] = None
    #: Deterministic metric/trace snapshot (``ObsContext.snapshot()``);
    #: empty unless the runner was given an ``obs`` context.
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: Fluid-tier snapshot (``FluidTier.snapshot()``) for hybrid runs;
    #: empty on pure-packet runs.
    fluid: Dict[str, object] = field(default_factory=dict)
    #: The live ObsContext (trace bus, registry) for post-run inspection.
    obs: Optional[object] = None

    @property
    def fairness(self) -> float:
        return jain_index(self.tputs_bps)

    @property
    def avg_tput_bps(self) -> float:
        return sum(self.tputs_bps) / len(self.tputs_bps) if self.tputs_bps else 0.0

    def rtt_summary(self) -> dict:
        return summarize(self.rtt_samples) if self.rtt_samples else {}


@dataclass
class Taps:
    """What observes a run without changing it.

    Kept out of :class:`~repro.experiments.scenario.Scenario`, so out of
    its equality and cache key: a tapped run is the untapped run
    (``tests/test_vswitch_taps.py``).  ``window_probe`` is set on every
    bulk flow's connection as it starts; ``guard_events``, when given, is
    the one list every Guard of the run appends its transition rows to,
    in order.
    """

    obs: Optional[object] = None
    int_tel: Optional[object] = None
    window_cb: Optional[Callable] = None
    window_probe: Optional[Callable] = None
    guard_events: Optional[list] = None


#: Topology builders a Scenario names; any other name is a
#: ``"module:function"`` reference.
BUILDERS = {"dumbbell": dumbbell, "parking_lot": parking_lot, "star": star}


class Testbed:
    """One run, wired from a :class:`~repro.experiments.scenario.Scenario`.

    The constructor builds the fabric — simulator, topology, datapaths
    and taps — so an experiment can add its own applications (or faults)
    on ``sim``/``parts``; :meth:`run` then places the Scenario's traffic
    and runs it.  The wiring order is fixed here and nowhere else
    (DESIGN.md §4 has the reasons at length).
    """

    def __init__(self, scenario: "Scenario", taps: Optional[Taps] = None):
        taps = taps if taps is not None else Taps()
        self.scenario, self.taps = scenario, taps
        scheme, rate_bps = scenario.scheme, scenario.rate_bps
        self.sim = Simulator()
        # 1. Switches under the scheme's ECN profile.
        build = BUILDERS.get(scenario.topology)
        if build is None:
            from ..runtime.spec import resolve
            build = resolve(scenario.topology)
        self.topology, *self.parts = build(
            self.sim, scenario.size, rate_bps=rate_bps, mtu=scenario.mtu,
            seed=scenario.seed, **switch_opts(scheme, rate_bps))
        # 2. obs *before* any vSwitch exists: a vSwitch registers with,
        #    and takes its trace bus from, the context in its constructor
        #    — one bound later would hand it a bus with no clock.
        self.obs = obs = taps.obs
        if obs is not None:
            obs.bind(self.sim)
            obs.attach_topology(self.topology)
        # 3. vSwitches on every host, in the order the builder returned
        #    them: each starts its GC timer as it is created, so the
        #    order is part of the run's event sequence.  Each Guard gets
        #    its own copy of its config: a live reconfigure writes into
        #    it, never into the Scenario.
        hosts = [h for part in self.parts
                 for h in (part if isinstance(part, list) else [part])
                 if isinstance(h, Host)]
        self.guards = {}
        if scenario.guards and scheme.vswitch == "acdc":
            from ..guard import Guard
            self.guards = {name: Guard(replace(config),
                                       events=taps.guard_events)
                           for name, config in scenario.guards}
        policy = (PolicyEngine(scenario.policy, scenario.rules)
                  if scenario.policy is not None or scenario.rules else None)
        self.vswitches = attach_vswitches(
            scheme, hosts, acdc_config=scenario.acdc, policy=policy,
            window_cb=taps.window_cb, guards=self.guards, obs=obs)
        # 4. INT after the vSwitches, which are its endpoints.  (5., the
        #    fluid coupling, comes last: in run(), once the packet flows
        #    are placed.)
        self.int_tel = int_tel = taps.int_tel
        if int_tel is not None:
            int_tel.attach(self.sim, self.topology, self.vswitches.values(),
                           obs)

    # -- run and harvest -----------------------------------------------------
    def _bulk(self, spec: "Flow") -> BulkSender:
        """One bulk flow and, unless its ``dst:port`` has one, the
        listener.  The sink mirrors the flow's ``cc`` and ``ecn`` —
        ECN negotiation is end-to-end, and a non-ECN listener would
        silently disable it — but not transmit-side knobs like pacing."""
        hosts = self.topology.hosts
        dst = hosts[spec.dst]
        if spec.port not in dst.listeners:
            sink_opts = ({} if spec.ack_division is None
                         else {"ack_division": spec.ack_division})
            Sink(dst, spec.port, cc=spec.cc, ecn=spec.ecn, **sink_opts)
        on_start = None
        if self.taps.window_probe is not None:
            def on_start(flow, probe=self.taps.window_probe):
                flow.conn.window_probe = probe
        return BulkSender(self.sim, hosts[spec.src], dst.addr, spec.port,
                          size_bytes=spec.size, start_at=spec.start,
                          send_at=spec.send_at, stop_at=spec.stop,
                          conn_opts=spec.conn_opts(), on_start=on_start)

    def _mark_baseline(self, flows: List[BulkSender]) -> None:
        self._baseline = [f.bytes_acked for f in flows]

    def run(self) -> RunResult:
        """Place the Scenario's traffic, run to its duration and harvest.

        Placement order: bulk flows (each followed by its meter), the
        RTT probe, then the fluid coupling.  Throughputs average over
        ``[measure_from, duration]``: the paper's runs last minutes, so
        its averages do not see the connection-setup transient a short
        simulated run would.
        """
        sc, sim = self.scenario, self.sim
        flows: List[BulkSender] = []
        meters: List[ThroughputMeter] = []
        for spec in sc.flows:
            flow = self._bulk(spec)
            flows.append(flow)
            if sc.meters:
                meter = ThroughputMeter(sim, lambda f=flow: f.bytes_acked,
                                        interval_s=sc.duration / 100.0)
                sim.schedule_at(spec.start, meter.start)
                meters.append(meter)
        rtt = RttRecorder()
        if sc.probe is not None:
            probe, opts = sc.probe, sc.scheme.conn_opts()
            dst = self.topology.hosts[probe.dst]
            EchoSink(dst, RTT_PROBE_PORT, **opts)
            PingPong(sim, self.topology.hosts[probe.src], dst.addr,
                     RTT_PROBE_PORT, rtt, interval_s=probe.interval,
                     warmup_s=probe.warmup, pipelined=probe.pipelined,
                     conn_opts=opts)
        tier = None
        if sc.fluid is not None:
            # The stepper starts after the foreground has established:
            # the background classes dump their initial windows into the
            # queue in one burst (no packet-level slow start), and a
            # handshake's non-ECT SYN arriving into that transient is
            # dropped with probability 1.
            coupling = sc.fluid
            tier = FluidTier(sim)
            tier.couple(self.topology.switches[coupling.switch],
                        coupling.port,
                        classes=tuple(g.to_fluid_spec()
                                      for g in coupling.groups))
            tier.start(start_at=coupling.start)
        duration, measure_from = sc.duration, sc.measure_from
        self._baseline = [0] * len(flows)
        if measure_from > 0.0:
            sim.schedule_at(measure_from, self._mark_baseline, flows)
        sim.run(until=duration)
        window = duration - measure_from
        # Fabric-wide fraction of forwarded packets that were dropped.
        switches = self.topology.switches.values()
        dropped = sum(sw.total_drops() for sw in switches)
        sent = sum(sw.total_tx_packets() for sw in switches) + dropped
        result = RunResult(
            scheme=sc.scheme.name, duration=duration,
            tputs_bps=[(f.bytes_acked - b) * 8 / window
                       for f, b in zip(flows, self._baseline)],
            rtt_samples=rtt.samples,
            drop_rate=dropped / sent if sent else 0.0,
            vswitches=self.vswitches, flows=flows, meters=meters, sim=sim,
            topology=self.topology)
        obs = self.obs
        if tier is not None:
            tier.stop()
            result.fluid = tier.snapshot()
            if obs is not None:
                # Flatten the coupling stats into the telemetry snapshot
                # so a hybrid run is observable like a packet run.
                obs.register_fluid(tier)
        if obs is not None:
            result.obs = obs
            result.telemetry = obs.snapshot()
        return result
