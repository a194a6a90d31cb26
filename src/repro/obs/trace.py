"""The structured trace bus.

Every telemetry event is **typed**: its ``type`` must appear in
:data:`EVENT_SCHEMAS` and carry at least the schema's required fields,
so a typo'd emission fails loudly at the call site instead of producing
an unfilterable mystery record.  Events are timestamped from the
simulator clock only — a trace is a property of the *run*, not of the
machine that happened to execute it, which is also what keeps serial,
process-pool and cache-replay paths byte-identical.

Sampling is deterministic: per-type keep-1-in-N counters, never an RNG
draw (an unseeded draw would both break determinism and trip
repro-lint's RL002).  The first event of a sampled type is always kept
so short runs are never silently empty.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

# Severity levels, numeric so filtering is one comparison.
DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

SEVERITY_NAMES = {DEBUG: "debug", INFO: "info",
                  WARNING: "warning", ERROR: "error"}
SEVERITY_BY_NAME = {name: level for level, name in SEVERITY_NAMES.items()}

#: The event vocabulary: type -> required field names.  Emissions may
#: carry extra fields; missing a required one raises at emit time.
EVENT_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    # Flow lifecycle and state transitions (vSwitch flow table, guest CC).
    "flow.state": ("state",),
    # Sender-module window enforcement: one event per non-FACK ingress
    # ACK, in log-only mode too (rewritten=False) — the Fig. 9 overlay.
    "rwnd.rewrite": ("wnd_bytes", "rewritten"),
    # Datapath ECN actions.
    "ecn.mark": ("direction",),
    # Window policing (config policer; guard drops ride guard.* events).
    "policer.drop": ("reason",),
    # Guard ladder transitions and enforcement actions.
    "guard.escalate": (),
    "guard.deescalate": (),
    "guard.police_drop": (),
    "guard.quarantine_drop": (),
    "guard.feedback_fallback": (),
    "guard.shed": (),
    "guard.unshed": (),
    # Catch-all for guard kinds with no dedicated type (forward compat).
    "guard.event": ("kind",),
    # Injected faults (repro.faults) by cause.
    "fault.inject": ("cause",),
    # Switch-port shared-buffer occupancy at enqueue (sampled).
    "buffer.occupancy": ("queue_bytes",),
    # In-band telemetry (repro.obs.int).  ``status`` is "ok" for a
    # consumed report (with bottleneck/q_max_bytes/... fields) and an
    # "invalid_*" reason when a mangled stack or echo was discarded —
    # fault-degraded telemetry is counted and traced, never raised.
    "int.report": ("status",),
    # The sender-side view observed a new path signature for a flow.
    "int.path_change": ("path",),
    # Sanitizer violations and flight-recorder dumps.
    "sanitizer.violation": ("invariant",),
    "flight.dump": ("path",),
    # Control plane (repro.control): command dispositions, canary state
    # transitions, and rollbacks (with the violating SLO deltas).
    "control.command": ("op", "status"),
    "control.canary": ("state",),
    "control.rollback": ("reason",),
    # Experiment runtime: a cache entry that failed to parse (treated as
    # a miss; the cell re-runs and overwrites it).
    "cache.corrupt": ("key",),
    # Durability (repro.recovery).  These fire on the *supervisor's* bus,
    # never the service's own: the service trace feeds the byte-identity
    # signature, and a restored run must not carry extra events an
    # uninterrupted run lacks.
    "recovery.snapshot": ("epoch", "bytes"),
    "recovery.restore": ("epoch",),
    "recovery.wal_replay": ("replayed",),
}

#: Record keys the bus itself owns; event fields may not shadow them.
RESERVED_FIELDS = ("t", "type", "sev", "component", "flow")

#: Default keep-1-in-N sampling for the high-frequency types.  Anything
#: not listed is unsampled (every emission recorded) — in particular
#: ``rwnd.rewrite``, whose full series is the Fig. 9 overlay.
DEFAULT_SAMPLING: Dict[str, int] = {
    "ecn.mark": 16,
    "buffer.occupancy": 16,
}


def format_flow(flow) -> Optional[str]:
    """Render a flow key for records: ``src:sport>dst:dport``."""
    if flow is None:
        return None
    if isinstance(flow, tuple) and len(flow) == 4:
        return f"{flow[0]}:{flow[1]}>{flow[2]}:{flow[3]}"
    return str(flow)


class TraceEvent(NamedTuple):
    """One recorded event, built from the bus's log on read."""

    t: float
    type: str
    severity: int
    component: Optional[str]
    flow: object
    fields: dict


def _event(rec: tuple) -> TraceEvent:
    shape = rec[1]
    return TraceEvent(rec[0], *shape[:3], rec[2], dict(zip(shape[3], rec[3:])))


@dataclass
class TraceConfig:
    """Bus tunables.

    ``sample`` maps event type -> N (record every Nth emission; the
    first is always recorded).  ``max_events`` bounds memory on runaway
    traces; excess emissions are counted, not stored.
    """

    level: int = INFO
    sample: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_SAMPLING))
    max_events: int = 1_000_000
    validate: bool = True


class TraceBus:
    """Collects one run's events, one tuple per record: ``(t, shape,
    flow, *values)``, where ``shape = (type, severity, component, field
    names)`` is interned, and schema-checked, once per bus (DESIGN.md
    §11).  Readers build dicts and :class:`TraceEvent` objects from it.

    A bus may be created unbound (no simulator yet) so experiment
    callers can wire probes before the runner builds the
    :class:`~repro.sim.engine.Simulator`; :meth:`bind` attaches the
    clock.  Emitting on an unbound bus is an error.
    """

    def __init__(self, sim=None, config: Optional[TraceConfig] = None):
        self.sim = sim
        self.config = config if config is not None else TraceConfig()
        self._log: List[tuple] = []
        self._shapes: Dict[tuple, tuple] = {}
        self.emitted = 0    # offered to the bus
        self.recorded = 0   # stored
        self.filtered = 0   # below the severity level
        self.sampled_out = 0
        self.dropped = 0    # over max_events
        self._tallies: _TallyCounter = _TallyCounter()
        self._sample_counters: Dict[str, int] = {}

    def bind(self, sim) -> None:
        """Attach the simulator whose clock timestamps every event."""
        self.sim = sim

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def emit(self, type_: str, *, flow=None, component: Optional[str] = None,
             severity: int = INFO, **fields) -> bool:
        """Offer one event; returns True if it was recorded.

        Raises ``KeyError`` for an unknown type and ``ValueError`` for a
        missing required field or a reserved field name (with
        ``config.validate``, read when a shape is first seen; validation
        is on by default — emission only happens when tracing is on,
        never on the tracing-off hot path).
        """
        if self.sim is None:
            raise RuntimeError("TraceBus is not bound to a simulator")
        self.emitted += 1
        config = self.config
        key = (type_, severity, component, tuple(fields))
        shape = self._shapes.get(key)
        if shape is None:
            if config.validate:
                required = EVENT_SCHEMAS.get(type_)
                if required is None:
                    raise KeyError(
                        f"unknown trace event type {type_!r}; add it to "
                        f"repro.obs.trace.EVENT_SCHEMAS")
                for name in required:
                    if name not in fields:
                        raise ValueError(
                            f"trace event {type_!r} requires field {name!r}")
                for name in RESERVED_FIELDS:
                    if name in fields:
                        raise ValueError(
                            f"trace event field {name!r} shadows a reserved "
                            f"record key")
            shape = self._shapes[key] = key
        if severity < config.level:
            self.filtered += 1
            return False
        n = config.sample.get(type_, 0)
        if n > 1:
            count = self._sample_counters.get(type_, 0)
            self._sample_counters[type_] = count + 1
            if count % n != 0:
                self.sampled_out += 1
                return False
        if len(self._log) >= config.max_events:
            self.dropped += 1
            return False
        self._log.append((self.sim.now, shape, flow, *fields.values()))
        self.recorded += 1
        self._tallies[type_] += 1
        return True

    # ------------------------------------------------------------------
    def records(self) -> List[dict]:
        """The whole trace as flat JSON-able dicts, in emission order:
        ``t, type, sev, component, flow``, then the fields as emitted."""
        # A record head per shape and a rendering per flow, by identity:
        # the log holds only interned shapes, and flows need no hash.
        heads = {id(shape): ({"t": None, "type": shape[0],
                              "sev": SEVERITY_NAMES.get(shape[1],
                                                        str(shape[1])),
                              "component": shape[2], "flow": None}, shape[3])
                 for shape in self._shapes.values()}
        flows: Dict[int, Optional[str]] = {}
        out = []
        append = out.append
        for rec in self._log:
            head, names = heads[id(rec[1])]
            flow = rec[2]
            shown = flows.get(id(flow))
            if shown is None:
                shown = flows[id(flow)] = format_flow(flow)
            record = head.copy()
            record["t"] = rec[0]
            record["flow"] = shown
            record.update(zip(names, rec[3:]))
            append(record)
        return out

    @property
    def events(self) -> List[TraceEvent]:
        """The recorded events, built from the log on each read (count
        them with ``len(bus)``)."""
        return [_event(rec) for rec in self._log]

    def by_type(self) -> Dict[str, int]:
        """Recorded-event counts per type (sorted for determinism)."""
        return {k: self._tallies[k] for k in sorted(self._tallies)}

    def for_flow(self, flow) -> List[TraceEvent]:
        """Events scoped to one flow (key tuple or formatted string)."""
        wanted = format_flow(flow)
        return [_event(rec) for rec in self._log
                if format_flow(rec[2]) == wanted]

    def summary(self) -> dict:
        """Deterministic counts for ``RunResult.telemetry``."""
        return {
            "emitted": self.emitted,
            "recorded": self.recorded,
            "filtered": self.filtered,
            "sampled_out": self.sampled_out,
            "dropped": self.dropped,
            "by_type": self.by_type(),
        }

    def __len__(self) -> int:
        return len(self._log)
