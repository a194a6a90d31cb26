"""Shared experiment plumbing.

Every experiment in §5 compares (a subset of) three configurations:

* **CUBIC** — host CUBIC, plain OVS, switch WRED/ECN *off*;
* **DCTCP** — host DCTCP (ECN on), plain OVS, switch WRED/ECN *on*;
* **AC/DC** — host stack varies (CUBIC unless stated), AC/DC in the
  vSwitch, switch WRED/ECN *on*.

:class:`Scheme` captures one such configuration; :func:`attach_vswitches`
instantiates the right datapath on every host; :class:`Testbed` is the
one place a run is put together (DESIGN.md §4, "How a run is assembled")
and :class:`RunResult` what it hands back.  The scaling constants
centralise the simulator's time/size scaling so EXPERIMENTS.md can cite
one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from ..core import AcdcConfig, AcdcVswitch, PlainOvs, PolicyEngine
from ..core.ops import OpsCounter
from ..fluid import FluidTier
from ..metrics import RttRecorder, ThroughputMeter, jain_index, summarize
from ..net.host import Host
from ..sim import Simulator
from ..workloads.apps import BulkSender, EchoSink, PingPong, Sink

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

#: Name -> Scheme, for the runtime's process-pool workers: a run spec's
#: kwargs must be plain JSON, so cells reference schemes by name and
#: re-resolve them here (see repro.runtime.spec).
SCHEME_BY_NAME = {s.name: s for s in ALL_SCHEMES}


def attach_vswitches(
    scheme: Scheme,
    hosts: Iterable[Host],
    acdc_config: Optional[AcdcConfig] = None,
    policy: Optional[PolicyEngine] = None,
    window_cb=None,
    guard_factory=None,
    obs=None,
) -> Dict[str, object]:
    """Instantiate the scheme's datapath on every host.

    ``guard_factory``, if given, is called per AC/DC host and returns a
    fresh :class:`repro.guard.Guard` (or None) to attach to that host's
    vSwitch — a Guard binds to exactly one datapath.  ``obs``, if given,
    is the run's :class:`repro.obs.ObsContext`; each AC/DC vSwitch
    registers with it and traces onto its bus.

    Returns ``{host addr: vswitch}`` so experiments can read flow tables,
    op counters and enforcement stats afterwards.
    """
    out: Dict[str, object] = {}
    for host in hosts:
        if scheme.vswitch == "acdc":
            config = acdc_config if acdc_config is not None else AcdcConfig()
            guard = guard_factory(host) if guard_factory is not None else None
            vsw = AcdcVswitch(host, config=config, policy=policy,
                              ops=OpsCounter(), window_cb=window_cb,
                              guard=guard, obs=obs)
        else:
            vsw = PlainOvs(host, ops=OpsCounter())
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


class Testbed:
    """One run, wired: simulator, topology, datapaths and taps.

    ``build`` is a topology builder (``dumbbell``, ``parking_lot``,
    ``star`` or an experiment's own) called as ``build(sim,
    rate_bps=..., **builder_kwargs, **switch_opts(scheme, rate_bps))``
    and returning ``(topology, *parts)``; ``parts`` keeps the builder's
    own host lists / switch.  The wiring order is fixed here and nowhere
    else (DESIGN.md §4 has the reasons at length).
    """

    def __init__(self, scheme: Scheme, build, *, rate_bps: float,
                 obs=None, int_tel=None,
                 acdc_config: Optional[AcdcConfig] = None,
                 policy: Optional[PolicyEngine] = None,
                 window_cb=None, guard_factory=None, **builder_kwargs):
        self.scheme = scheme
        self.sim = Simulator()
        # 1. Switches under the scheme's ECN profile.
        self.topology, *self.parts = build(
            self.sim, rate_bps=rate_bps, **builder_kwargs,
            **switch_opts(scheme, rate_bps))
        # 2. obs *before* any vSwitch exists: a vSwitch registers with,
        #    and takes its trace bus from, the context in its constructor
        #    — one bound later would hand it a bus with no clock.
        self.obs = obs
        if obs is not None:
            obs.bind(self.sim)
            obs.attach_topology(self.topology)
        # 3. vSwitches on every host, in the order the builder returned
        #    them: each starts its GC timer as it is created, so the
        #    order is part of the run's event sequence.
        hosts = [h for part in self.parts
                 for h in (part if isinstance(part, list) else [part])
                 if isinstance(h, Host)]
        self.vswitches = attach_vswitches(
            scheme, hosts, acdc_config=acdc_config, policy=policy,
            window_cb=window_cb, guard_factory=guard_factory, obs=obs)
        # 4. INT after the vSwitches, which are its endpoints.  (5., the
        #    fluid coupling, comes last: couple_fluid(), once the packet
        #    flows are placed.)
        self.int_tel = int_tel
        if int_tel is not None:
            int_tel.attach(self.sim, self.topology, self.vswitches.values(),
                           obs)
        self.flows: List[BulkSender] = []
        self.rtt = RttRecorder()
        self._tier = None

    # -- flow placement ------------------------------------------------------
    def bulk(self, src: Host, dst: Host, port: int,
             conn_opts: Optional[dict] = None,
             sink_opts: Optional[dict] = None, **sender_opts) -> BulkSender:
        """One iperf-style flow ``src -> dst:port`` and its listener.

        The sink mirrors the flow's stack — ``cc`` and ``ecn``, because
        ECN negotiation is end-to-end and a non-ECN listener would
        silently disable it — but not transmit-side knobs like pacing;
        ``sink_opts`` adds receiver-side ones.  Flows sharing a
        ``dst:port`` share its first listener.
        """
        opts = self.scheme.conn_opts() if conn_opts is None else conn_opts
        if port not in dst.listeners:
            Sink(dst, port, cc=opts["cc"], ecn=opts["ecn"],
                 **(sink_opts or {}))
        flow = BulkSender(self.sim, src, dst.addr, port, conn_opts=opts,
                          **sender_opts)
        self.flows.append(flow)
        return flow

    def probe(self, src: Host, dst: Host, interval_s: float,
              warmup_s: float, pipelined: bool = False) -> None:
        """sockperf-style RTT probe under the scheme's guest stack;
        samples land in ``RunResult.rtt_samples``."""
        EchoSink(dst, RTT_PROBE_PORT, **self.scheme.conn_opts())
        PingPong(self.sim, src, dst.addr, RTT_PROBE_PORT, self.rtt,
                 interval_s=interval_s, start_at=0.0, warmup_s=warmup_s,
                 pipelined=pipelined, conn_opts=self.scheme.conn_opts())

    def couple_fluid(self, switch, port_id: int, classes, dt: float,
                     start_at: float) -> None:
        """Attach the fluid tier (``repro.fluid``) at one bottleneck port.

        The stepper starts at ``start_at``, not 0: the background classes
        dump their initial windows into the queue in one burst (they have
        no packet-level slow start), which parks the occupancy above the
        WRED ramp top — and a foreground handshake's non-ECT SYN arriving
        into that transient is dropped with probability 1.  Letting the
        foreground establish first is the same connect-quietly-then-storm
        methodology the incast runner uses for its packet senders.
        """
        self._tier = FluidTier(self.sim, dt=dt)
        self._tier.couple(switch, port_id, classes=tuple(classes))
        self._tier.start(start_at=start_at)

    # -- run and harvest -----------------------------------------------------
    def drop_rate(self) -> float:
        """Fabric-wide fraction of forwarded packets that were dropped."""
        switches = self.topology.switches.values()
        sent = sum(sw.total_tx_packets() for sw in switches)
        dropped = sum(sw.total_drops() for sw in switches)
        total = sent + dropped
        return dropped / total if total else 0.0

    def _mark_baseline(self) -> None:
        self._baseline = [f.bytes_acked for f in self.flows]

    def run(self, duration: float, measure_from: float = 0.0) -> RunResult:
        """Run to ``duration`` and harvest the common observables.

        Throughputs are averaged over ``[measure_from, duration]``: the
        paper's runs last minutes, so its averages do not see the
        connection-setup transient a short simulated run would.
        """
        self._baseline = [0] * len(self.flows)
        if measure_from > 0.0:
            self.sim.schedule_at(measure_from, self._mark_baseline)
        self.sim.run(until=duration)
        window = duration - measure_from
        result = RunResult(
            scheme=self.scheme.name, duration=duration,
            tputs_bps=[(f.bytes_acked - b) * 8 / window
                       for f, b in zip(self.flows, self._baseline)],
            rtt_samples=self.rtt.samples, drop_rate=self.drop_rate(),
            vswitches=self.vswitches, flows=self.flows, sim=self.sim,
            topology=self.topology)
        obs = self.obs
        if self._tier is not None:
            self._tier.stop()
            result.fluid = self._tier.snapshot()
            if obs is not None:
                # Flatten the coupling stats into the telemetry snapshot
                # so a hybrid run is observable like a packet run.
                obs.register_fluid(self._tier)
        if obs is not None:
            result.obs = obs
            result.telemetry = obs.snapshot()
        return result
