"""Span recorder for the traced run of the perf ledger.

Wraps the *public* entry points of each layer with class-level wrappers
(installed only for a traced run, removed afterwards; nothing under
``src/`` knows it exists).  A span is (id, name, start, end, parent id);
a stack of open spans gives parent links and self time:

    self time = duration − time covered by child spans

Spans are folded in memory into one accumulator per (parent name, name)
edge — a packet run opens ~10^6 spans, far too many to keep — and the
first ``RAW_LIMIT`` spans are also kept verbatim so a dump can be read as
a timeline.  :meth:`Tracer.report` returns everything as plain JSON data.

Self times of all names (the root span included) add up to the root
span's duration exactly, so a layer table built from a dump always sums
to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import AcdcVswitch, PlainOvs
from repro.fluid.coupling import FluidPort
from repro.net.host import Host
from repro.net.link import TxPort
from repro.net.switch import Switch
from repro.obs import IntStamper, IntTelemetry, PortObs, TraceBus
from repro.runtime import ResultCache, Runtime
from repro.sim import Simulator
from repro.tcp.connection import TcpConnection

#: (class, method) pairs wrapped for a packet-level workload; the span is
#: named ``Class.method``.
PACKET_TARGETS: Tuple[Tuple[type, str], ...] = (
    (Simulator, "run"),
    (TxPort, "enqueue"),
    (Switch, "receive"),
    (Host, "receive"), (Host, "output"), (Host, "wire_out"),
    (AcdcVswitch, "egress"), (AcdcVswitch, "ingress"),
    (PlainOvs, "egress"), (PlainOvs, "ingress"),
    (TcpConnection, "handle_packet"),
    (IntStamper, "on_enqueue"), (IntStamper, "on_depart"),
    (IntTelemetry, "on_ingress_data"), (IntTelemetry, "on_egress_ack"),
    (IntTelemetry, "on_ingress_ack"),
    (TraceBus, "emit"), (PortObs, "on_enqueue"),
    (FluidPort, "step"),
)

#: Wrapped for the sweep workload.  Its cells run in forked pool workers,
#: whose spans could not be read back, so the packet-level names stay
#: unwrapped there (the workers would only pay for them).
RUNTIME_TARGETS: Tuple[Tuple[type, str], ...] = (
    (Runtime, "map"), (ResultCache, "get"), (ResultCache, "put"),
)

#: Span name -> per-layer metric stem (several methods may share one).
LAYER_OF: Dict[str, str] = {
    "Simulator.run": "sim.run",
    "TxPort.enqueue": "net.port_enqueue",
    "Switch.receive": "net.switch_rx",
    "Host.receive": "net.host_rx",
    "Host.output": "net.host_tx", "Host.wire_out": "net.host_tx",
    "AcdcVswitch.egress": "core.egress", "PlainOvs.egress": "core.egress",
    "AcdcVswitch.ingress": "core.ingress", "PlainOvs.ingress": "core.ingress",
    "TcpConnection.handle_packet": "tcp.handle_packet",
    "IntStamper.on_enqueue": "obs.tap", "IntStamper.on_depart": "obs.tap",
    "IntTelemetry.on_ingress_data": "obs.tap",
    "IntTelemetry.on_egress_ack": "obs.tap",
    "IntTelemetry.on_ingress_ack": "obs.tap",
    "TraceBus.emit": "obs.tap", "PortObs.on_enqueue": "obs.tap",
    "FluidPort.step": "fluid.step",
    "Runtime.map": "runtime.map",
    "ResultCache.get": "runtime.cache", "ResultCache.put": "runtime.cache",
}

#: Name of the span the harness puts around the timed scenario call.
ROOT = "scenario"

#: This many spans (the first ones) are also kept verbatim.
RAW_LIMIT = 2000


class Tracer:
    """In-memory span recorder with install/uninstall of class wrappers."""

    def __init__(self) -> None:
        #: name -> parent name (None at the top) -> [calls, total s, self s]
        self.edges: Dict[str, Dict[Optional[str], List[float]]] = {}
        #: First ``RAW_LIMIT`` spans: (id, name, start, end, parent id).
        self.raw: List[tuple] = []
        #: Next span id (a one-slot list: the wrappers share and bump it).
        self._next_id = [0]
        #: Open spans, innermost last: [name, child seconds, id].  The
        #: bottom frame is a sentinel, so a wrapper never tests for "no
        #: parent" on the hot path.
        self._stack: List[list] = [[None, 0.0, None]]
        self._installed: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records one span called ``name``."""
        stack, raw, next_id = self._stack, self.raw, self._next_id
        clock = time.perf_counter
        by_parent = self.edges.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, next_id[0]]
            next_id[0] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                acc = by_parent.get(parent[0])
                if acc is None:
                    acc = by_parent[parent[0]] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[1]
                parent[1] += duration
                if frame[2] < RAW_LIMIT:
                    raw.append((frame[2], name, start, end, parent[2]))

        return traced

    def install(self, targets: Iterable[Tuple[type, str]]) -> None:
        for cls, attr in targets:
            original = cls.__dict__[attr]
            self._installed.append((cls, attr, original))
            setattr(cls, attr, self.wrap(f"{cls.__name__}.{attr}", original))

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def reset(self) -> None:
        """Forget recorded spans (after the warm-up); wrappers stay."""
        for by_parent in self.edges.values():
            by_parent.clear()
        self.raw.clear()
        self._next_id[0] = 0

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Everything recorded, as plain JSON data."""
        spans, edges = {}, []
        for name, by_parent in sorted(self.edges.items()):
            if not by_parent:
                continue
            spans[name] = {
                "calls": sum(acc[0] for acc in by_parent.values()),
                "total_s": sum(acc[1] for acc in by_parent.values()),
                "self_s": sum(acc[2] for acc in by_parent.values()),
            }
            edges.extend(
                {"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for parent, (calls, total, self_s) in by_parent.items())
        return {
            "spans": spans,
            "edges": edges,
            "raw": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                    for i, n, s, e, p in self.raw],
        }


def layer_table(report: dict) -> Dict[str, Dict[str, float]]:
    """Fold a :meth:`Tracer.report` into per-layer calls and self time.

    Names without a layer (the root span) keep their own name, so the
    table's self times still add up to the root's duration.
    """
    table: Dict[str, Dict[str, float]] = {}
    for name, span in report["spans"].items():
        row = table.setdefault(LAYER_OF.get(name, name),
                               {"calls": 0, "self_s": 0.0})
        row["calls"] += span["calls"]
        row["self_s"] += span["self_s"]
    return table
