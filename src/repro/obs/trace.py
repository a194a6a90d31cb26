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

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

# Severity levels, numeric so a reader's ``--min-sev`` is one comparison.
INFO = 20
WARNING = 30
ERROR = 40

SEVERITY_NAMES = {INFO: "info", WARNING: "warning", ERROR: "error"}
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
    # Injected faults (repro.faults) by cause.
    "fault.inject": ("cause",),
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
    # Control plane (repro.control): command dispositions and kill-switch
    # rollbacks to the boot configuration.
    "control.command": ("op", "status"),
    "control.rollback": ("reason",),
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
DEFAULT_SAMPLING: Dict[str, int] = {"ecn.mark": 16}


def format_flow(flow) -> Optional[str]:
    """Render a flow key for records: ``src:sport>dst:dport``."""
    if flow is None:
        return None
    if isinstance(flow, tuple) and len(flow) == 4:
        return f"{flow[0]}:{flow[1]}>{flow[2]}:{flow[3]}"
    return str(flow)


class TraceEvent(NamedTuple):
    """One recorded event, built from the bus's columns on read."""

    t: float
    type: str
    severity: int
    component: Optional[str]
    flow: object
    fields: dict


#: Typed value columns, by the *exact* type of a field's first value;
#: anything else is a list from the start (DESIGN.md §11).
_TYPECODES = {float: "d", int: "i", bool: "b"}


@dataclass
class TraceConfig:
    """Bus tunables.

    ``sample`` maps event type -> N (record every Nth emission; the
    first is always recorded), read when the bus creates a channel of
    the type.  ``max_events`` bounds memory on runaway traces; excess
    emissions are counted, not stored.
    """

    sample: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_SAMPLING))
    max_events: int = 1_000_000


#: Kept records a channel holds before moving their values into its
#: columns in one batch (DESIGN.md §11).
BATCH = 256


class Channel:
    """The pre-bound emitter of one interned shape ``(type, severity,
    component, names)`` of a bus, and that shape's value columns.

    Created with its arity and its type's keep-1-in-N sampler: one
    ``[count, n]`` cell that every channel of the type shares, None for
    an unsampled type.  A kept record's values wait in ``pending`` until
    :data:`BATCH` of them move into the columns together, or until a
    reader (:meth:`rows`, ``columns``, ``kinds``, pickling) asks.
    """

    __slots__ = ("bus", "index", "type", "severity", "component", "names",
                 "arity", "sampler", "pending", "flushed", "_columns",
                 "_kinds")

    def __init__(self, bus: "TraceBus", index: int, shape: tuple):
        self.bus = bus
        self.index = index
        self.type, self.severity, self.component, self.names = shape
        self.arity = len(self.names)
        n = bus.config.sample.get(self.type, 0)
        self.sampler = (bus._samplers.setdefault(self.type, [0, n])
                        if n > 1 else None)
        self.pending: List[tuple] = []
        self.flushed = 0   # records moved into the columns
        # Opened by the first recorded event; ``_kinds[i]`` is the exact
        # type column ``i`` holds, None once it is a list.
        self._columns = self._kinds = None

    def emit(self, flow, *values) -> bool:
        """Offer one event, values in ``names`` order; True if recorded."""
        bus = self.bus
        sim = bus.sim
        if sim is None:
            raise RuntimeError("TraceBus is not bound to a simulator")
        if len(values) != self.arity:
            bus.refused += 1
            raise ValueError(f"trace channel {self.type!r} takes values "
                             f"{self.names}, got {len(values)}")
        sampler = self.sampler
        if sampler is not None:
            count = sampler[0]
            sampler[0] = count + 1
            if count % sampler[1]:
                bus.sampled_out += 1
                return False
        order = bus._order
        if len(order) >= bus.config.max_events:
            bus.dropped += 1
            return False
        order.append(self.index)
        bus._times.append(sim.now)
        bus._flows.append(flow)
        pending = self.pending
        pending.append(values)
        if len(pending) >= BATCH:
            self.flush()
        return True

    def flush(self) -> None:
        """Move the pending values into the columns: per column one type
        check and one ``extend``; value by value only where a value breaks
        the column's type or overflows its array."""
        pending = self.pending
        if not pending:
            return
        self.pending = []
        self.flushed += len(pending)
        if not self.arity:
            return
        columns, kinds = self._columns, self._kinds
        if columns is None:   # the first record types the columns
            kinds = self._kinds = [t if t in _TYPECODES else None
                                   for t in map(type, pending[0])]
            columns = self._columns = [array(_TYPECODES[t]) if t else []
                                       for t in kinds]
        for i, values in enumerate(zip(*pending)):
            kind = kinds[i]
            column = columns[i]
            if kind is None:
                column.extend(values)
                continue
            if set(map(type, values)) == {kind}:
                held = len(column)
                try:
                    column.extend(values)
                    continue
                except OverflowError:   # an int beyond 32 bits
                    del column[held:]
            for value in values:
                if kind is not None and type(value) is kind:
                    try:
                        column.append(value)
                        continue
                    except OverflowError:
                        pass
                if kind is not None:
                    # Box the column into a list of its values, for good.
                    column = columns[i] = list(map(kind, column))
                    kind = kinds[i] = None
                column.append(value)

    @property
    def columns(self) -> Optional[list]:
        """The value columns, pending values moved in (None before the
        first record, or for a shape without fields)."""
        self.flush()
        return self._columns

    @property
    def kinds(self) -> Optional[list]:
        """Per column, the exact type it holds; None once it is a list."""
        self.flush()
        return self._kinds

    def __len__(self) -> int:
        return self.flushed + len(self.pending)

    def rows(self) -> Iterator[tuple]:
        """This shape's recorded values, one tuple per event."""
        columns, kinds = self.columns, self._kinds
        if not columns:   # no field, or nothing recorded
            return repeat(())
        return zip(*[map(bool, column) if kind is bool else column
                     for column, kind in zip(columns, kinds)])

    def __getstate__(self):
        self.flush()
        return None, {name: getattr(self, name) for name in self.__slots__}


class TraceBus:
    """Collects one run's events in columns (DESIGN.md §11): per record,
    its shape's index, time and flow key; per shape, the value columns
    of the shape's :class:`Channel`, through which every record enters.

    A bus may be created unbound (no simulator yet) so experiment
    callers can wire probes before the runner builds the
    :class:`~repro.sim.engine.Simulator`; :meth:`bind` attaches the
    clock.  Emitting on an unbound bus is an error.
    """

    def __init__(self, sim=None, config: Optional[TraceConfig] = None):
        self.sim = sim
        self.config = config if config is not None else TraceConfig()
        self._shapes: Dict[tuple, Channel] = {}  # shape -> its channel
        self._order = array("I")   # shape index of each record
        self._times = array("d")
        self._flows: List[object] = []
        self.sampled_out = 0
        self.dropped = 0    # over max_events
        self.refused = 0    # raised: a bad shape or a wrong value count
        #: type -> its channels' shared ``[count, n]`` keep-1-in-N cell.
        self._samplers: Dict[str, list] = {}

    def bind(self, sim) -> None:
        """Attach the simulator whose clock timestamps every event."""
        self.sim = sim

    @property
    def recorded(self) -> int:
        """Events stored."""
        return len(self._order)

    @property
    def emitted(self) -> int:
        """Events offered to the bus: each is stored, sampled out,
        dropped or refused."""
        return (len(self._order) + self.sampled_out + self.dropped
                + self.refused)

    # ------------------------------------------------------------------
    def channel(self, type_: str, names, *, component: Optional[str] = None,
                severity: int = INFO) -> Channel:
        """The one emitter of ``type_`` events carrying ``names``; a bad
        shape raises here, on every call."""
        names = tuple(names)
        key = (type_, severity, component, names)
        channel = self._shapes.get(key)
        if channel is None:
            required = EVENT_SCHEMAS.get(type_)
            if required is None:
                raise KeyError(
                    f"unknown trace event type {type_!r}; add it to "
                    f"repro.obs.trace.EVENT_SCHEMAS")
            for name in required:
                if name not in names:
                    raise ValueError(
                        f"trace event {type_!r} requires field {name!r}")
            for name in RESERVED_FIELDS:
                if name in names:
                    raise ValueError(
                        f"trace event field {name!r} shadows a reserved "
                        f"record key")
            channel = self._shapes[key] = Channel(self, len(self._shapes),
                                                  key)
        return channel

    def emit(self, type_: str, *, flow=None, component: Optional[str] = None,
             severity: int = INFO, **fields) -> bool:
        """Offer one event through its shape's :meth:`channel` (a refused
        shape counts as emitted, then raises); True if it was recorded."""
        channel = self._shapes.get((type_, severity, component,
                                    tuple(fields)))
        if channel is None:
            if self.sim is None:
                raise RuntimeError("TraceBus is not bound to a simulator")
            try:
                channel = self.channel(type_, fields, component=component,
                                       severity=severity)
            except (KeyError, ValueError):
                self.refused += 1
                raise
        return channel.emit(flow, *fields.values())

    # ------------------------------------------------------------------
    def records(self) -> List[dict]:
        """The whole trace as flat JSON-able dicts, in emission order:
        ``t, type, sev, component, flow``, then the fields as emitted."""
        shapes = [({"t": None, "type": ch.type,
                    "sev": SEVERITY_NAMES.get(ch.severity, str(ch.severity)),
                    "component": ch.component, "flow": None},
                   ch.names, ch.rows())
                  for ch in self._shapes.values()]
        # One rendering per flow, by identity: the log keeps every flow
        # alive, and flows need no hash.
        flows: Dict[int, Optional[str]] = {}
        out = []
        append = out.append
        for index, t, flow in zip(self._order, self._times, self._flows):
            head, names, rows = shapes[index]
            shown = flows.get(id(flow))
            if shown is None:
                shown = flows[id(flow)] = format_flow(flow)
            record = head.copy()
            record["t"] = t
            record["flow"] = shown
            record.update(zip(names, next(rows)))
            append(record)
        return out

    @property
    def events(self) -> List[TraceEvent]:
        """The recorded events, built from the columns on each read
        (count them with ``len(bus)``)."""
        channels = list(self._shapes.values())
        rows = [ch.rows() for ch in channels]
        out = []
        for index, t, flow in zip(self._order, self._times, self._flows):
            ch, values = channels[index], next(rows[index])
            out.append(TraceEvent(t, ch.type, ch.severity, ch.component,
                                  flow, dict(zip(ch.names, values))))
        return out

    def by_type(self) -> Dict[str, int]:
        """Recorded-event counts per type (sorted for determinism)."""
        tallies: Dict[str, int] = {}
        for channel in self._shapes.values():
            n = len(channel)
            if n:
                tallies[channel.type] = tallies.get(channel.type, 0) + n
        return {k: tallies[k] for k in sorted(tallies)}

    def for_flow(self, flow) -> List[TraceEvent]:
        """Events scoped to one flow (key tuple or formatted string)."""
        wanted = format_flow(flow)
        return [e for e in self.events if format_flow(e.flow) == wanted]

    def summary(self) -> dict:
        """Deterministic counts for ``RunResult.telemetry``."""
        return {
            "emitted": self.emitted,
            "recorded": self.recorded,
            "sampled_out": self.sampled_out,
            "dropped": self.dropped,
            "by_type": self.by_type(),
        }

    def __len__(self) -> int:
        return len(self._order)

    def __getstate__(self) -> dict:
        # A checkpoint carries every record.  Pickled first, the flow keys
        # take the pickler's first memo slots, so each record's reference
        # to its flow costs 2 bytes instead of 5.
        return {"_flows": self._flows, **self.__dict__}
