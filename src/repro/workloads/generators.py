"""Workload orchestrators for the macrobenchmarks (§5.2).

Each generator wires applications (``repro.workloads.apps``) over a star
topology the way the paper describes:

* :class:`ConcurrentStride` — server *i* sends one background transfer
  to each of servers *i+1..i+4* (mod N), plus fixed-interval mice to
  *i+8*;
* :class:`Shuffle` — every server sends a block to every other server in
  random order, at most ``fanout`` transfers at a time, plus mice;
* :class:`TraceDriven` — per-server applications sampling message sizes
  from a flow-size distribution, sent to random destinations
  back-to-back over long-lived connections.

(N-to-1 incast is a Scenario: ``repro.experiments.runners.incast_scenario``.)
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..metrics.collectors import FctRecorder, FlowRecord
from ..net.host import Host
from ..sim.engine import Simulator
from .apps import MessageStream, Sink
from .traces import MICE_CUTOFF_BYTES, FlowSizeDistribution

#: Every generator's servers listen on this port.
PORT = 5000
#: Concurrent stride: server *i* sends one background transfer to each
#: of servers *i+1..i+STRIDE*, and its mice to server *i+MICE_OFFSET*
#: (the shuffle's mice go there too).
STRIDE = 4
MICE_OFFSET = 8
#: The §5.2 mice: one 16 KB message every 100 ms.
MICE_BYTES = 16 * 1024
MICE_INTERVAL_S = 0.1
#: Trace-driven load: applications per server, messages per application.
APPS_PER_HOST = 5
MESSAGES_PER_APP = 15


class ConcurrentStride:
    """§5.2 'concurrent stride': background stride-4 + mice to i+8."""

    def __init__(
        self,
        sim: Simulator,
        hosts: Sequence[Host],
        recorder: FctRecorder,
        background_bytes: int,
        duration: float = 2.0,
        conn_opts: Optional[dict] = None,
    ):
        self.sim = sim
        self.hosts = list(hosts)
        self.recorder = recorder
        n = len(self.hosts)
        conn_opts = conn_opts or {}
        self.sinks = {h.addr: Sink(h, PORT, **conn_opts) for h in self.hosts}
        self.streams: List[MessageStream] = []
        for i, host in enumerate(self.hosts):
            # Background: one transfer to each of the next STRIDE hosts.
            for k in range(1, STRIDE + 1):
                dst = self.hosts[(i + k) % n]
                stream = MessageStream(
                    sim, host, dst.addr, PORT, self.sinks[dst.addr],
                    recorder, label="background", conn_opts=dict(conn_opts))
                sim.schedule_at(0.0, stream.send_message, background_bytes)
                self.streams.append(stream)
            # Mice: fixed-interval small messages to host i+offset; the
            # streams are staggered across the interval (real servers'
            # timers are not phase-locked).
            dst = self.hosts[(i + MICE_OFFSET) % n]
            mice = MessageStream(
                sim, host, dst.addr, PORT, self.sinks[dst.addr],
                recorder, label="mice", conn_opts=dict(conn_opts))
            offset = (i / n) * MICE_INTERVAL_S
            sim.schedule_at(offset, lambda s=mice: s.send_every(
                MICE_BYTES, MICE_INTERVAL_S, until=duration))
            self.streams.append(mice)


class Shuffle:
    """§5.2 'shuffle': all-to-all blocks, ≤ ``fanout`` concurrent sends."""

    def __init__(
        self,
        sim: Simulator,
        hosts: Sequence[Host],
        recorder: FctRecorder,
        block_bytes: int,
        rng: random.Random,
        fanout: int = 2,
        mice_bytes: int = MICE_BYTES,
        mice_interval: float = MICE_INTERVAL_S,
        mice_until: float = 2.0,
        conn_opts: Optional[dict] = None,
    ):
        self.sim = sim
        self.hosts = list(hosts)
        self.recorder = recorder
        self.block_bytes = block_bytes
        self.fanout = fanout
        conn_opts = conn_opts or {}
        self.conn_opts = conn_opts
        n = len(self.hosts)
        self.sinks = {h.addr: Sink(h, PORT, **conn_opts) for h in self.hosts}
        # Per-sender randomized destination order and progress cursor.
        self._pending: Dict[str, List[Host]] = {}
        self._active: Dict[str, int] = {}
        for host in self.hosts:
            order = [h for h in self.hosts if h is not host]
            rng.shuffle(order)
            self._pending[host.addr] = order
            self._active[host.addr] = 0
        for i, host in enumerate(self.hosts):
            dst = self.hosts[(i + MICE_OFFSET) % n]
            mice = MessageStream(
                sim, host, dst.addr, PORT, self.sinks[dst.addr],
                recorder, label="mice", conn_opts=dict(conn_opts))
            offset = (i / n) * mice_interval
            sim.schedule_at(offset, lambda s=mice: s.send_every(
                mice_bytes, mice_interval, until=mice_until))
        for host in self.hosts:
            for _ in range(fanout):
                sim.schedule_at(0.0, lambda h=host: self._launch_next(h))

    def _launch_next(self, host: Host) -> None:
        pending = self._pending[host.addr]
        if not pending or self._active[host.addr] >= self.fanout:
            return
        dst = pending.pop(0)
        self._active[host.addr] += 1
        stream = MessageStream(
            self.sim, host, dst.addr, PORT, self.sinks[dst.addr],
            self.recorder, label="background", conn_opts=dict(self.conn_opts))

        def done(_record: FlowRecord, h=host) -> None:
            self._active[h.addr] -= 1
            self._launch_next(h)

        stream.on_message_complete = done
        stream.send_message(self.block_bytes)

    def finished(self) -> bool:
        return all(not p for p in self._pending.values()) and \
            all(a == 0 for a in self._active.values())


class TraceDriven:
    """§5.2 trace-driven load: sampled message sizes to random peers."""

    def __init__(
        self,
        sim: Simulator,
        hosts: Sequence[Host],
        recorder: FctRecorder,
        distribution: FlowSizeDistribution,
        rng: random.Random,
        conn_opts: Optional[dict] = None,
    ):
        self.sim = sim
        self.recorder = recorder
        conn_opts = conn_opts or {}
        sinks = {h.addr: Sink(h, PORT, **conn_opts) for h in hosts}
        hosts = list(hosts)
        for host in hosts:
            peers = [h for h in hosts if h is not host]
            for app in range(APPS_PER_HOST):
                dst = rng.choice(peers)
                sizes = [distribution.sample(rng)
                         for _ in range(MESSAGES_PER_APP)]
                stream = MessageStream(
                    sim, host, dst.addr, PORT, sinks[dst.addr], recorder,
                    label=_label(sizes[0]), conn_opts=dict(conn_opts))
                # Label per message: wrap the recorder open via send loop.
                self._send_labeled(stream, sizes)

    def _send_labeled(self, stream: MessageStream, sizes: List[int]) -> None:
        remaining = list(sizes)

        def send_next(_record=None) -> None:
            if not remaining:
                return
            size = remaining.pop(0)
            stream.label = _label(size)
            stream.send_message(size)

        stream.on_message_complete = send_next
        self.sim.schedule_at(0.0, send_next)


def _label(size_bytes: int) -> str:
    """A trace message's FCT class (Fig. 23's mice/elephant split)."""
    return "mice" if size_bytes < MICE_CUTOFF_BYTES else "elephant"
