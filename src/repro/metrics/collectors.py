"""Measurement instruments: throughput meters, window logs, FCT records.

These are the simulation stand-ins for the paper's tools: iperf
(throughput), sockperf (RTT — implemented as the ping-pong app in
``repro.workloads.apps``), tcpprobe (window timeseries) and the simple
TCP application that measures flow completion times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.timers import PeriodicTimer


class ThroughputMeter:
    """Samples a cumulative byte counter into a (time, bits/s) series.

    ``byte_source`` is any zero-argument callable returning cumulative
    bytes (e.g. ``lambda: conn.bytes_acked_total``).
    """

    def __init__(self, sim: Simulator, byte_source: Callable[[], int],
                 interval_s: float = 0.1):
        self.sim = sim
        self.byte_source = byte_source
        self.interval = interval_s
        self.series: List[Tuple[float, float]] = []
        self._last_bytes = 0
        self._last_time = sim.now
        self._timer = PeriodicTimer(sim, interval_s, self._sample)

    def start(self) -> None:
        self._last_bytes = self.byte_source()
        self._last_time = self.sim.now
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _sample(self) -> None:
        # Rate over the *actual* elapsed virtual time since the previous
        # sample, not the configured interval: a meter started mid-run or
        # restarted after stop() would otherwise misreport its first
        # window (and any tick the timer delivered late).
        current = self.byte_source()
        elapsed = self.sim.now - self._last_time
        if elapsed <= 0.0:
            return
        bps = (current - self._last_bytes) * 8.0 / elapsed
        self._last_bytes = current
        self._last_time = self.sim.now
        self.series.append((self.sim.now, bps))


class WindowLogger:
    """Accumulates (time, window bytes) samples, per flow.

    Pass :meth:`acdc_callback` as ``window_cb`` (it becomes the vSwitch's
    ``on_window`` tap entry as is) for the vSwitch's computed RWND (Fig.
    9/10), or :meth:`probe` into ``TcpConnection.window_probe`` for the
    guest stack's CWND (tcpprobe).
    """

    def __init__(self) -> None:
        self.samples: Dict[object, List[Tuple[float, float]]] = {}

    def acdc_callback(self, key, now: float, wnd_bytes: int) -> None:
        self.samples.setdefault(key, []).append((now, float(wnd_bytes)))

    def probe(self, conn) -> None:
        key = conn.key()
        self.samples.setdefault(key, []).append(
            (conn.sim.now, float(conn.cwnd)))


@dataclass
class FlowRecord:
    """One completed (or in-flight) transfer."""

    label: str
    size_bytes: int
    start: float
    end: Optional[float] = None

    @property
    def fct(self) -> float:
        if self.end is None:
            raise ValueError(f"flow {self.label!r} has not completed")
        return self.end - self.start


class FctRecorder:
    """Flow-completion-time ledger shared by workload apps."""

    def __init__(self) -> None:
        self.records: List[FlowRecord] = []

    def open(self, label: str, size_bytes: int, start: float) -> FlowRecord:
        record = FlowRecord(label=label, size_bytes=size_bytes, start=start)
        self.records.append(record)
        return record

    def completed(self, label_prefix: str = "") -> List[FlowRecord]:
        return [r for r in self.records
                if r.end is not None and r.label.startswith(label_prefix)]

    def fcts(self, label_prefix: str = "") -> List[float]:
        return [r.fct for r in self.completed(label_prefix)]

    def completion_fraction(self, label_prefix: str = "") -> float:
        relevant = [r for r in self.records if r.label.startswith(label_prefix)]
        if not relevant:
            return 0.0
        done = sum(1 for r in relevant if r.end is not None)
        return done / len(relevant)


class RttRecorder:
    """Application-level RTT samples (sockperf stand-in)."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, rtt_s: float) -> None:
        if rtt_s < 0:
            raise ValueError("negative RTT sample")
        self.samples.append(rtt_s)
