"""The per-run observability context: one bus + one registry.

An :class:`ObsContext` bundles the trace bus and the metric registry
for one run and knows how to instrument the repo's building blocks:
vSwitches (:meth:`register_vswitch`; their decisions reach the bus
through a :class:`VswitchObs` tap), switches and their ports
(:meth:`register_switch` / :meth:`attach_topology`, one
:class:`PortObs` tap per port) and the engine itself (:meth:`bind`).

It may be created *unbound* — before the run's
:class:`~repro.sim.engine.Simulator` exists — so experiment code can
wire probes first and hand the context to a runner, whose
:class:`~repro.experiments.common.Testbed` binds it.

:meth:`snapshot` produces the deterministic JSON-able dict stored in
``RunResult.telemetry``: metric values are read once, sorted by name,
and contain nothing host-dependent, so serial, pool and cache-replay
paths of the experiment runtime stay byte-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from .metrics import MetricRegistry, pow2_bounds
from .trace import INFO, TraceBus, TraceConfig

#: Queue-occupancy histogram buckets: 1.5 KB frames, power-of-two up to
#: beyond the modelled 9 MB shared buffer.
QUEUE_BYTES_BOUNDS = pow2_bounds(1500, 14)


class PortObs:
    """Per-switch-port telemetry tap (``SwitchTxPort.add_tap``): every
    admission and drop records the occupancy the packet met into the
    port's ``queue_bytes`` histogram."""

    __slots__ = ("hist",)

    def __init__(self, hist):
        self.hist = hist

    def on_drop(self, queue_bytes: int, nbytes) -> None:
        self.hist.record(queue_bytes)

    def on_enqueue(self, packet, queue_bytes: int, nbytes, marked) -> None:
        self.hist.record(queue_bytes)


class VswitchObs:
    """Per-vSwitch trace tap (``AcdcVswitch``, first in its taps when
    tracing): every decision, guard transitions included, onto the bus,
    one channel per (type, severity, field names) shape, and every RWND
    decision on an ACK onto ``rwnd.rewrite``.  The flight ring is a
    separate tap that only the sanitizer arms; it keeps the same fields
    at the bus's rates, counted per vSwitch, so its records are not the
    bus's (:mod:`repro.obs.recorder`).
    """

    __slots__ = ("bus", "channels", "rewrites")

    def __init__(self, bus: TraceBus):
        self.bus = bus
        #: (type, severity, field names) -> the bus channel of a decision.
        self.channels: Dict[tuple, object] = {}
        self.rewrites = bus.channel(
            "rwnd.rewrite", ("wnd_bytes", "rewritten", "visible_bytes"),
            component="vswitch", severity=INFO)

    def on_decision(self, type_: str, flow, severity: int,
                    fields: dict) -> None:
        key = (type_, severity, tuple(fields))
        try:
            channel = self.channels[key]
        except KeyError:
            channel = self.channels[key] = self.bus.channel(
                type_, key[2], component="vswitch", severity=severity)
        channel.emit(flow, *fields.values())

    def on_advertised(self, entry, pkt, wnd: int, rewritten) -> None:
        """The RWND decision on an ACK (``rewritten`` None: a fabricated
        advertisement, which is no decision).  Emitted in log-only mode
        too (rewritten=False): Fig. 9 overlays the would-be vSwitch
        window against the guest's CWND."""
        if isinstance(rewritten, bool):
            self.rewrites.emit(entry.key, wnd, rewritten,
                               pkt.rwnd_field << entry.peer_wscale)


# Metric sources are module-level functions bound with
# ``functools.partial`` (or bound methods), never lambdas: a registry
# that is part of a live service must survive checkpoint/restore
# pickling.


def _engine_metrics(sim) -> dict:
    return {
        "events_processed": sim.events_processed,
        "events_scheduled": sim.events_scheduled,
        "heap_compactions": sim.heap_compactions,
    }


def _vswitch_ops_metrics(vswitch) -> dict:
    return {
        "packets_egress": vswitch.ops.packets_egress,
        "packets_ingress": vswitch.ops.packets_ingress,
        **vswitch.ops.snapshot(),
    }


def _vswitch_flow_table_metrics(vswitch) -> dict:
    return {
        "entries": len(vswitch.table.entries),
        "restarts": vswitch.restarts,
        "resurrections": vswitch.resurrections,
    }


def _vswitch_policer_metrics(vswitch) -> dict:
    return {"drops": vswitch.policer.drops}


def _vswitch_conntrack_metrics(vswitch) -> dict:
    entries = vswitch.table.entries.values()
    return {
        "dupacks": sum(e.conntrack.dupacks for e in entries),
        "timeouts_inferred": sum(e.conntrack.timeouts_inferred
                                 for e in entries),
    }


def _switch_metrics(switch) -> dict:
    return {
        "rx_packets": switch.rx_packets,
        "no_route_drops": switch.no_route_drops,
        "tx_packets": switch.total_tx_packets(),
        "drops": switch.total_drops(),
        "marked_packets": switch.marker.marked_packets,
        "wred_drops": switch.marker.dropped_packets,
        "buffer_peak_used": switch.shared.peak_used,
    }


def _port_metrics(port) -> dict:
    stats = port.stats
    return {
        "tx_packets": stats.tx_packets,
        "tx_bytes": stats.tx_bytes,
        "dropped_packets": stats.dropped_packets,
        "dropped_bytes": stats.dropped_bytes,
        "marked_packets": stats.marked_packets,
    }


def _fluid_port_metrics(fp) -> dict:
    """Flattened coupling stats of one fluid port (repro.fluid).

    The scalar subset of ``FluidPort.snapshot()`` (no nested per-class
    lists), so hybrid runs surface their coupling behaviour — overlay
    occupancy peak, serialization inflation, mark fraction — through the
    same ``RunResult.telemetry`` snapshot path as packet-tier metrics.
    """
    return {
        "steps": fp.steps,
        "offered_bytes": fp.offered_bytes,
        "delivered_bytes": fp.delivered_bytes,
        "marked_bytes": fp.marked_bytes,
        "wred_dropped_bytes": fp.wred_dropped_bytes,
        "tail_lost_bytes": fp.tail_lost_bytes,
        "overlay_bytes": fp.shared.overlay_bytes(fp.queue_id),
        "overlay_peak_bytes": fp.overlay_peak_bytes,
        "inflation": fp.service_inflation(),
        "inflation_peak": fp.inflation_peak,
        "mark_fraction": fp.mark_fraction,
    }


class ObsContext:
    """Trace bus + metric registry for one run."""

    def __init__(self, sim=None, config: Optional[TraceConfig] = None):
        self.sim = sim
        self.bus = TraceBus(sim, config)
        self.registry = MetricRegistry()
        self.vswitches: List[object] = []
        self.switches: List[object] = []
        if sim is not None:
            self._register_engine(sim)

    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Attach the run's simulator (idempotent for the same one)."""
        if self.sim is sim:
            return
        if self.sim is not None:
            raise RuntimeError("ObsContext is already bound to a simulator")
        self.sim = sim
        self.bus.bind(sim)
        self._register_engine(sim)

    def _register_engine(self, sim) -> None:
        self.registry.source("engine", partial(_engine_metrics, sim))

    # ------------------------------------------------------------------
    def register_vswitch(self, vswitch) -> None:
        """Expose one AC/DC vSwitch's counters as metric sources."""
        if vswitch in self.vswitches:
            return
        self.vswitches.append(vswitch)
        addr = getattr(vswitch.host, "addr", f"vswitch{len(self.vswitches)}")
        prefix = f"vswitch.{addr}"
        self.registry.source(f"{prefix}.ops", partial(_vswitch_ops_metrics, vswitch))
        self.registry.source(
            f"{prefix}.flow_table",
            partial(_vswitch_flow_table_metrics, vswitch))
        self.registry.source(f"{prefix}.policer",
                             partial(_vswitch_policer_metrics, vswitch))
        self.registry.source(
            f"{prefix}.conntrack",
            partial(_vswitch_conntrack_metrics, vswitch))

    def register_switch(self, switch) -> None:
        """Instrument one switch: aggregate source + per-port occupancy
        histograms."""
        if switch in self.switches:
            return
        self.switches.append(switch)
        prefix = f"switch.{switch.name}"
        self.registry.source(prefix, partial(_switch_metrics, switch))
        for port_id, port in switch.ports.items():
            name = f"{prefix}.p{port_id}"
            hist = self.registry.histogram(f"{name}.queue_bytes",
                                           QUEUE_BYTES_BOUNDS)
            self.registry.source(name, partial(_port_metrics, port))
            port.add_tap(PortObs(hist))

    def attach_topology(self, topology) -> None:
        """Instrument every switch of a built topology."""
        for switch in topology.switches.values():
            self.register_switch(switch)

    def register_int(self, telemetry) -> None:
        """Expose an :class:`~repro.obs.int.IntTelemetry` context: the
        run-global pipeline counters plus one source per hop stamper."""
        self.registry.source("int", telemetry.snapshot)
        for stamper in telemetry.stampers:
            self.registry.source(f"int.hop.{stamper.hop_id}",
                                 stamper.snapshot)

    def register_fluid(self, tier) -> None:
        """Flatten a :class:`~repro.fluid.FluidTier`'s coupling stats
        into the snapshot, one source per coupled port.

        Ports without flow classes register nothing: an inert coupling
        (hooks installed, zero background) must keep the §15
        byte-identity contract with an uncoupled run, snapshot
        included.
        """
        for fluid_port in tier.ports:
            if not fluid_port.classes:
                continue
            name = f"fluid.{fluid_port.port.name}"
            self.registry.source(name, partial(_fluid_port_metrics, fluid_port))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The deterministic ``RunResult.telemetry`` payload."""
        return {
            "metrics": self.registry.snapshot(),
            "trace": self.bus.summary(),
        }
