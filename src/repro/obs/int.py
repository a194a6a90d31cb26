"""In-band network telemetry (INT): per-hop metadata from switch to sender.

PowerTCP-class congestion control consumes *in-network* state — queue
depth, link utilization, hop latency — rather than end-to-end proxies
for it.  This module builds that signal path on the reproduction's
datapath (DESIGN.md §16):

* :class:`IntStamper` — per-``SwitchTxPort`` hook: each transiting
  packet that leaves the port gets one hop record appended to its
  (out-of-band) ``int_stack``: hop id, instantaneous + EWMA queue
  depth, cumulative port tx-bytes, EWMA utilization, hop residence
  time.  The stack is bounded (:data:`MAX_INT_HOPS`); overflow is
  counted, never an error.
* :class:`IntSink` — per-flow receiver-role state in the vSwitch: it
  absorbs and validates arriving stacks (a mangled stack degrades to a
  counted invalid, never an exception), aggregates them per hop, and
  folds the aggregate into a compact :class:`IntEcho` digest attached
  to the next egress ACK — the same piggyback direction as the PACK
  feedback option.  Echoes are immutable tuples; the ones a sink builds
  are of a private subtype that is valid by construction.
* :class:`TelemetryView` — per-flow sender-role state: consumes echoes
  (scanning only those no sink built), tracks the path signature, the
  bottleneck hop (argmax queue depth), the queue-depth series and the
  per-hop latency decomposition.  It is
  the read hook handed to ``vswitch_cc.on_int_report`` (consumer stub
  for now) and the per-hop queue-depth source of the service's epoch
  reports (``repro.control.service``).
* :class:`IntTelemetry` — the run-level context wiring all of the
  above, plus the monotonic run-global counters the metric registry
  snapshots (flow entries are garbage-collected; run totals must not
  shrink with them).
* :func:`attribution` — the per-hop bottleneck table folded from
  exported ``int.report`` records (``python -m repro.obs int`` and the
  int-attribution experiment both print it).

Everything is sim-clock-only and RNG-free, and INT off costs the
datapath nothing but its hooks' empty tests: a switch port calls an
:class:`IntStamper`, and a vSwitch :class:`IntTelemetry`, only once it
is one of its taps (one empty-tuple test per hook).

The stack and echo ride the packet **out of band**: they do not count
into :attr:`Packet.size`, because a mid-queue size change would break
the shared buffer's admit/release byte conservation.  The real wire
overhead (≈12 B per hop, bounded by :data:`MAX_INT_HOPS`) is a
documented fidelity boundary, not a modelled one — see DESIGN.md §16.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .trace import INFO, WARNING

#: Hard bound on the per-packet hop stack.  Real INT deployments bound
#: the stack to fit header budgets; eight hops covers any datacenter
#: path this repo builds (the deepest stock topology is 4 hops).
MAX_INT_HOPS = 8

#: Fields of one hop record, in stack order:
#: ``(hop, q_bytes, q_ewma_bytes, tx_bytes, util, residence_s)``.
HOP_FIELDS = 6

#: EWMA smoothing for the stamper's queue-depth and utilization
#: estimates (per-event, like DCTCP's g — small enough to smooth,
#: large enough to track an incast onset within tens of packets).
DEFAULT_EWMA_ALPHA = 0.25

#: Value types of a stamped hop record and of an echoed hop aggregate.
#: A record of exactly these types, with a hop id and no negative value,
#: is valid (``IntSink.absorb`` and :func:`valid_echo` check that first);
#: any other record is left to the validators' per-value loops.
HOP_TYPES = (str, int, float, int, float, float)
ECHO_HOP_TYPES = (str, int, int, float, float, float, float)

_HOP_ID = itemgetter(0)
_Q_MAX = itemgetter(2)


def valid_hop(record) -> bool:
    """Shape-check one hop record (fault injectors mangle these)."""
    if not isinstance(record, tuple) or len(record) != HOP_FIELDS:
        return False
    hop, q, q_ewma, tx, util, res = record
    if not isinstance(hop, str) or not hop:
        return False
    for value in (q, q_ewma, tx, util, res):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if value < 0:
            return False
    return True


def valid_stack(stack) -> bool:
    """Shape-check a whole hop stack; empty stacks are invalid too."""
    if not isinstance(stack, list) or not stack:
        return False
    if len(stack) > MAX_INT_HOPS:
        return False
    return all(map(valid_hop, stack))


class IntStamper:
    """Per-port hop metadata source (a ``SwitchTxPort`` tap).

    ``on_enqueue`` fires on shared-buffer admission (the occupancy the
    packet actually joined behind); ``on_depart`` is told the instant
    ``now`` at which the packet left the wire-side of the port (the port
    settles departures lazily, so the clock may have moved on) and
    appends the hop record, so the residence time covers queueing *and*
    serialization.  The port's settle passes in what it already holds:
    ``nbytes``, the size it admitted, and ``tx_bytes``, its counter
    before the departing packet is counted — so stamping never reads the
    port's settling ``stats`` from inside a settle.
    """

    __slots__ = ("sim", "port", "hop_id", "q_ewma", "util_ewma", "stamped",
                 "overflowed", "_pending", "_last_depart")

    def __init__(self, port, hop_id: str):
        self.sim = port.sim
        self.port = port
        self.hop_id = hop_id
        self.q_ewma = 0.0
        self.util_ewma = 0.0
        self.stamped = 0
        self.overflowed = 0
        # pid -> (admit time, occupancy at admission); admitted packets
        # always depart, so entries cannot leak.
        self._pending: Dict[int, Tuple[float, int]] = {}
        self._last_depart = 0.0

    def on_enqueue(self, packet, queue_bytes: int, nbytes, marked) -> None:
        self.q_ewma += DEFAULT_EWMA_ALPHA * (queue_bytes - self.q_ewma)
        self._pending[packet.pid] = (self.sim.now, queue_bytes)

    def on_depart(self, packet, now: float, nbytes: int,
                  tx_bytes: int) -> None:
        pending = self._pending.pop(packet.pid, None)
        if pending is None:
            return  # admitted before the stamper was attached
        admitted_at, q_inst = pending
        rate = self.port.rate_bps
        serialization = nbytes * 8.0 / rate if rate > 0 else 0.0
        gap = now - self._last_depart
        busy = 1.0 if gap <= 0.0 else serialization / gap
        if not busy < 1.0:  # min(1.0, busy), NaN included
            busy = 1.0
        self._last_depart = now
        self.util_ewma += DEFAULT_EWMA_ALPHA * (busy - self.util_ewma)
        stack = packet.int_stack
        if stack is None:
            stack = packet.int_stack = []
        if len(stack) >= MAX_INT_HOPS:
            self.overflowed += 1
            return
        stack.append((self.hop_id, q_inst, self.q_ewma, tx_bytes,
                      self.util_ewma, now - admitted_at))
        self.stamped += 1

    def snapshot(self) -> dict:
        """Counters in metric-source shape (see repro.obs.context)."""
        return {
            "stamped": self.stamped,
            "overflowed": self.overflowed,
            "q_ewma_bytes": self.q_ewma,
            "util_ewma": self.util_ewma,
        }


class IntEcho(NamedTuple):
    """Compact digest of absorbed hop stacks, echoed on an ACK.

    ``hops`` holds one aggregate tuple per hop in path order:
    ``(hop, q_last, q_max, q_ewma_last, util_last, residence_sum,
    residence_max)``.  An echo is a tuple, so it is immutable — fault
    injectors *replace* it with garbage — and :meth:`Packet.copy` may
    share the reference between duplicates.
    """

    serial: int
    path: Tuple[str, ...]
    hops: Tuple[tuple, ...]
    stacks: int


class _SinkEcho(IntEcho):
    """An echo an :class:`IntSink` built (with ``tuple.__new__``, so
    without a frame) from stacks it validated: valid by construction,
    so :meth:`TelemetryView.on_echo` skips :func:`valid_echo` for it.
    An echo of any other type, ``IntEcho`` included, is scanned."""

    __slots__ = ()


def valid_echo(echo) -> bool:
    """Shape-check an echo digest at the sender (faults mangle these)."""
    if not isinstance(echo, IntEcho):
        return False
    if not isinstance(echo.serial, int) or echo.serial < 1:
        return False
    if not isinstance(echo.path, tuple) or not echo.path:
        return False
    if not isinstance(echo.hops, tuple) or len(echo.hops) != len(echo.path):
        return False
    if not isinstance(echo.stacks, int) or echo.stacks < 1:
        return False
    for hop_id, agg in zip(echo.path, echo.hops):
        if not (type(agg) is tuple
                and tuple(map(type, agg)) == ECHO_HOP_TYPES
                and agg[0] == hop_id and type(hop_id) is str and hop_id
                and min(agg[1:]) >= 0):
            break
    else:
        return True
    for hop_id, agg in zip(echo.path, echo.hops):
        if not isinstance(hop_id, str) or not hop_id:
            return False
        if not isinstance(agg, tuple) or len(agg) != 7 or agg[0] != hop_id:
            return False
        for value in agg[1:]:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
            if value < 0:
                return False
    return True


class IntSink:
    """Receiver-role INT state for one flow (``FlowEntry.int_sink``).

    Aggregates arriving stacks into the current echo window; a new path
    signature (reroute, or the first stack of a window) restarts the
    window on the new path.
    """

    __slots__ = ("absorbed", "invalid", "serial", "path", "hops", "stacks")

    def __init__(self) -> None:
        self.absorbed = 0
        self.invalid = 0
        self.serial = 0       # echoes generated so far
        self.path: Optional[Tuple[str, ...]] = None
        self.hops: Optional[List[list]] = None
        self.stacks = 0       # stacks folded into the current window

    def absorb(self, stack) -> bool:
        """Fold one hop stack in; False (counted) if it fails validation."""
        # A list of exact HOP_TYPES records is checked here, in this frame.
        typed = type(stack) is list and 0 < len(stack) <= MAX_INT_HOPS
        for rec in stack if typed else ():
            if not (type(rec) is tuple and tuple(map(type, rec)) == HOP_TYPES
                    and rec[0] and min(rec[1:]) >= 0):
                typed = False
                break
        if not typed and not valid_stack(stack):
            self.invalid += 1
            return False
        path = tuple(map(_HOP_ID, stack))
        if path != self.path:
            self.path = path
            self.hops = hops = []
            for rec in stack:
                hops.append([rec[0], rec[1], rec[1], rec[2], rec[4],
                             rec[5], rec[5]])
            self.stacks = 1
        else:
            for agg, rec in zip(self.hops, stack):
                agg[1] = rec[1]
                if rec[1] > agg[2]:
                    agg[2] = rec[1]
                agg[3] = rec[2]
                agg[4] = rec[4]
                agg[5] += rec[5]
                if rec[5] > agg[6]:
                    agg[6] = rec[5]
            self.stacks += 1
        self.absorbed += 1
        return True

    def make_echo(self) -> Optional[IntEcho]:
        """Close the current window into a digest (None if it is empty)."""
        if self.stacks == 0:
            return None
        self.serial += 1
        echo = tuple.__new__(_SinkEcho, (self.serial, self.path,
                                         tuple(map(tuple, self.hops)),
                                         self.stacks))
        self.path = None
        self.hops = None
        self.stacks = 0
        return echo


class TelemetryView:
    """Sender-role per-flow telemetry (``FlowEntry.int_view``).

    The read surface for ``vswitch_cc.on_int_report`` and the service's
    epoch reports: latest path, bottleneck hop, queue-depth series, per-hop
    residence decomposition.  ``q_samples`` grows one entry per valid
    report (bounded by the run's report count, like an FCT series);
    epoch consumers read deltas by index.
    """

    __slots__ = ("reports", "invalid", "lost", "last_serial",
                 "path", "path_changes", "bottleneck", "q_max_bytes",
                 "util", "residence_s", "hop_residence_s", "q_samples")

    def __init__(self) -> None:
        self.reports = 0
        self.invalid = 0
        self.lost = 0           # serial gaps: echoes whose ACK never arrived
        self.last_serial = 0
        self.path: Optional[Tuple[str, ...]] = None
        self.path_changes = 0
        self.bottleneck: Optional[str] = None
        self.q_max_bytes = 0.0      # bottleneck queue max, latest window
        self.util = 0.0             # bottleneck utilization, latest window
        self.residence_s = 0.0      # whole-path residence, latest window
        self.hop_residence_s: Dict[str, float] = {}
        self.q_samples: List[float] = []

    def on_echo(self, echo) -> Tuple[str, bool]:
        """Consume one echo; returns ``(status, path_changed)``."""
        # A sink's echo is valid by construction; any other is scanned.
        if type(echo) is not _SinkEcho and not valid_echo(echo):
            self.invalid += 1
            return "invalid", False
        serial, path, hops, stacks = echo
        if serial > self.last_serial:
            self.lost += serial - self.last_serial - 1
        # serial <= last: the receiver-side sink restarted (vSwitch
        # crash/resurrection); resync without counting losses.
        self.last_serial = serial
        path_changed = self.path is not None and path != self.path
        if path_changed:
            self.path_changes += 1
        self.path = path
        # Bottleneck = argmax window queue max, first hop on ties (path
        # order, so the choice is deterministic).
        bottleneck = max(hops, key=_Q_MAX)
        self.bottleneck = bottleneck[0]
        self.q_max_bytes = bottleneck[2]
        self.util = bottleneck[4]
        # Latency decomposition: mean residence per hop over the window.
        self.hop_residence_s = residence = {}
        for agg in hops:
            residence[agg[0]] = agg[5] / stacks
        self.residence_s = sum(residence.values())
        self.q_samples.append(float(bottleneck[2]))
        self.reports += 1
        return "ok", path_changed

    def summary(self) -> dict:
        """JSON-able per-flow view (CLI, experiments)."""
        return {
            "reports": self.reports,
            "invalid": self.invalid,
            "lost": self.lost,
            "path": list(self.path) if self.path is not None else None,
            "path_changes": self.path_changes,
            "bottleneck": self.bottleneck,
            "q_max_bytes": self.q_max_bytes,
            "residence_s": self.residence_s,
            "hop_residence_s": dict(sorted(self.hop_residence_s.items())),
        }


class IntTelemetry:
    """Run-level INT context: stampers on switches, sink/echo/view logic
    for the vSwitches, and run-global monotonic counters.

    Created unbound; :meth:`attach` wires it into one built run, once.
    As a vSwitch tap it touches only a packet's ``int_stack``/``int_echo``
    — stripping both from every packet that arrives at a vSwitch, so
    neither ever reaches a VM — and calls the flow CC's
    ``on_int_report``.
    """

    def __init__(self) -> None:
        self.sim = None
        self.stampers: List[IntStamper] = []
        self.vswitches: List[object] = []
        # Run-global counters (flow entries are GC'd; these are not).
        self.stacks_absorbed = 0
        self.stacks_invalid = 0
        self.echoes_attached = 0
        self.reports_ok = 0
        self.reports_invalid = 0
        self.path_changes = 0
        # Trace bus -> its channel for a consumed ("ok") int.report.
        self._reports: Dict[object, object] = {}

    # ------------------------------------------------------------------
    def attach(self, sim, topology, vswitches, obs=None) -> None:
        """Wire this context into a built run, in the one valid order:
        clock, a stamper on every switch port (hop id = the port name),
        this context as the last tap of every AC/DC vSwitch (a
        ``PlainOvs`` has no INT endpoint), then (given an obs context)
        the metric sources, which enumerate the stampers just created."""
        if self.sim is not None:
            raise RuntimeError("IntTelemetry is already bound to a simulator")
        self.sim = sim
        for switch in topology.switches.values():
            for port in switch.ports.values():
                stamper = IntStamper(port, port.name)
                port.add_tap(stamper)
                self.stampers.append(stamper)
        for vswitch in vswitches:
            add_tap = getattr(vswitch, "add_tap", None)
            if add_tap is not None:
                add_tap(self)
                self.vswitches.append(vswitch)
        if obs is not None:
            obs.register_int(self)

    # ------------------------------------------------------------------
    # Tap hooks (AcdcVswitch.HOOKS)
    # ------------------------------------------------------------------
    def on_ingress_data(self, vswitch, entry, pkt, counted) -> None:
        """INT sink: strip the hop stack of arriving data, absorbing it
        where the receiver module counted the data (enforced flows)."""
        stack = pkt.int_stack
        if stack is None:
            return
        pkt.int_stack = None  # never reaches the VM
        if not counted:
            return
        sink = entry.int_sink
        if sink is None:
            sink = entry.int_sink = IntSink()
        if sink.absorb(stack):
            self.stacks_absorbed += 1
        else:
            self.stacks_invalid += 1
            if vswitch.trace is not None:
                vswitch.trace.emit("int.report", flow=entry.key,
                                   component="int.sink", severity=WARNING,
                                   status="invalid_stack")

    def on_egress_ack(self, entry, ack) -> None:
        """INT echo: piggyback the window digest on an egress ACK."""
        sink = entry.int_sink
        if sink is None:
            return
        echo = sink.make_echo()
        if echo is not None:
            ack.int_echo = echo
            self.echoes_attached += 1

    def on_ingress_ack(self, vswitch, entry, pkt) -> None:
        """Sender side: consume and strip the echo, update the view,
        surface ``int.report`` / ``int.path_change``, poke the CC stub.
        A SYN's or pure ACK's own hop stack is stripped unread (only a
        data packet's reaches a sink, in :meth:`on_ingress_data`)."""
        if not pkt.payload_len:
            pkt.int_stack = None
        echo = pkt.int_echo
        if echo is None:
            return
        pkt.int_echo = None  # vSwitch-to-vSwitch metadata, always stripped
        view = entry.int_view
        if view is None:
            view = entry.int_view = TelemetryView()
        status, path_changed = view.on_echo(echo)
        if status != "ok":
            self.reports_invalid += 1
            if vswitch.trace is not None:
                vswitch.trace.emit("int.report", flow=entry.key,
                                   component="int.view", severity=WARNING,
                                   status="invalid_echo")
            return
        self.reports_ok += 1
        if path_changed:
            self.path_changes += 1
        tr = vswitch.trace
        if tr is not None:
            if path_changed:
                tr.emit("int.path_change", flow=entry.key,
                        component="int.view", severity=WARNING,
                        path=list(view.path))
            reports = self._reports.get(tr)
            if reports is None:
                reports = self._reports[tr] = tr.channel(
                    "int.report", ("status", "serial", "bottleneck",
                                   "q_max_bytes", "util", "residence_s",
                                   "path_len", "stacks", "lost"),
                    component="int.view", severity=INFO)
            reports.emit(entry.key, "ok", echo.serial, view.bottleneck,
                         view.q_max_bytes, view.util, view.residence_s,
                         len(view.path), echo.stacks, view.lost)
        entry.vswitch_cc.on_int_report(view)

    # ------------------------------------------------------------------
    def views(self) -> Dict[tuple, TelemetryView]:
        """All live sender-side views, keyed by flow key (sorted)."""
        out = {}
        for vswitch in self.vswitches:
            for key, entry in vswitch.table.entries.items():
                if entry.int_view is not None:
                    out[key] = entry.int_view
        return {key: out[key] for key in sorted(out)}

    def snapshot(self) -> dict:
        """Run-global counters in metric-source shape."""
        return {
            "stacks_absorbed": self.stacks_absorbed,
            "stacks_invalid": self.stacks_invalid,
            "echoes_attached": self.echoes_attached,
            "reports_ok": self.reports_ok,
            "reports_invalid": self.reports_invalid,
            "path_changes": self.path_changes,
            "stamped": sum(s.stamped for s in self.stampers),
            "overflowed": sum(s.overflowed for s in self.stampers),
        }


def attribution(records: List[dict]) -> Dict[str, dict]:
    """Fold the "ok" ``int.report`` records into the per-hop bottleneck
    table: per hop, its ``reports``, deepest ``q_max_bytes``, ``share``
    of all reports and ``mean_residence_us``; most-reported hop first."""
    table: Dict[str, dict] = {}
    for record in records:
        if record.get("type") != "int.report" or record.get("status") != "ok":
            continue
        hop = str(record.get("bottleneck"))
        entry = table.setdefault(hop, {"reports": 0, "q_max_bytes": 0.0,
                                       "residence_s": 0.0})
        entry["reports"] += 1
        entry["q_max_bytes"] = max(entry["q_max_bytes"],
                                   float(record.get("q_max_bytes", 0.0)))
        entry["residence_s"] += float(record.get("residence_s", 0.0))
    total = sum(e["reports"] for e in table.values())
    for entry in table.values():
        entry["share"] = entry["reports"] / total if total else 0.0
        entry["mean_residence_us"] = (entry["residence_s"] / entry["reports"]
                                      * 1e6 if entry["reports"] else 0.0)
        del entry["residence_s"]
    return dict(sorted(table.items(),
                       key=lambda kv: (-kv[1]["reports"], kv[0])))
