"""Unified telemetry for the reproduction (DESIGN.md §11).

One simulation-time-aware observability layer that every subsystem emits
into:

* :mod:`repro.obs.trace` — the structured **trace bus**: typed,
  schema'd events (``rwnd.rewrite``, ``ecn.mark``, ``guard.escalate``,
  ``fault.inject``, ...) with per-flow/per-component scoping, a
  severity label and deterministic counter-based sampling;
* :mod:`repro.obs.metrics` — the **metric registry**: per-port
  fixed-bucket queue histograms and snapshot-time sources, snapshotted
  deterministically into ``RunResult.telemetry``;
* :mod:`repro.obs.recorder` — the **flight recorder**: a bounded
  per-vSwitch ring buffer of the last datapath decisions, armed when
  sanitizing and dumped on
  :class:`~repro.analysis.sanitize.InvariantViolation` or on demand;
* :mod:`repro.obs.export` — JSONL writer and reader for trace streams;
* guard transitions (:mod:`repro.guard.guard`) and injected faults
  (:mod:`repro.faults`) reach the bus and the ring as vSwitch
  decisions, ``guard.*`` and ``fault.inject``, like every other one;
* :mod:`repro.obs.int` — **in-band network telemetry**: switch ports
  stamp per-hop metadata (queue depth, utilization, residence) onto
  transiting packets, the receiving vSwitch echoes a compact digest
  back on ACKs, and the sender aggregates a per-flow
  :class:`~repro.obs.int.TelemetryView` (bottleneck hop, queue-depth
  series, path latency decomposition) — DESIGN.md §16;
* ``python -m repro.obs`` — ``summary`` / ``grep`` / ``timeline`` /
  ``int`` inspection of an exported trace.

Zero-cost-off contract: with telemetry off neither a switch port nor a
vSwitch holds a tap for it (:class:`~repro.obs.context.PortObs`,
:class:`~repro.obs.context.VswitchObs`), so each hook costs one
empty-tuple loop (``PORT_HOOKS``, ``AcdcVswitch.HOOKS``).  All timestamps come from ``sim.now``; nothing
in this package reads the wall clock.
"""

from .context import ObsContext, PortObs, VswitchObs
from .export import read_jsonl, write_jsonl
from .int import (
    MAX_INT_HOPS,
    IntEcho,
    IntSink,
    IntStamper,
    IntTelemetry,
    TelemetryView,
)
from .metrics import Histogram, MetricRegistry
from .recorder import FlightRecorder
from .trace import (
    ERROR,
    EVENT_SCHEMAS,
    INFO,
    WARNING,
    TraceBus,
    TraceConfig,
    TraceEvent,
    format_flow,
)

__all__ = [
    "ERROR",
    "EVENT_SCHEMAS",
    "FlightRecorder",
    "Histogram",
    "INFO",
    "IntEcho",
    "IntSink",
    "IntStamper",
    "IntTelemetry",
    "MAX_INT_HOPS",
    "MetricRegistry",
    "ObsContext",
    "PortObs",
    "TelemetryView",
    "TraceBus",
    "TraceConfig",
    "TraceEvent",
    "VswitchObs",
    "WARNING",
    "format_flow",
    "read_jsonl",
    "write_jsonl",
]
