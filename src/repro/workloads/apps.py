"""Traffic applications: the simulation's iperf, sockperf and FCT tools.

* :class:`Sink` — a listening endpoint; counts delivered bytes and routes
  delivery notifications to registered per-connection consumers.
* :class:`EchoSink` — request/response server for the ping-pong probe.
* :class:`BulkSender` — iperf stand-in: one connection, optionally
  unlimited data, optional fixed transfer size.
* :class:`PingPong` — sockperf stand-in: application-level RTT samples
  over a long-lived connection.
* :class:`MessageStream` — the "simple TCP application [that] sends
  messages of specified sizes to measure FCTs" (§5.2): a persistent
  connection carrying framed messages whose completion is detected at the
  receiver.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..metrics.collectors import FctRecorder, FlowRecord, RttRecorder
from ..net.host import Host
from ..sim.engine import Simulator
from ..tcp.connection import TcpConnection

ConnKey = Tuple[str, int, str, int]

#: Request and response size of the ping-pong probe: a small message,
#: so its RTT is the path's, not its own serialization.
PROBE_MSG_BYTES = 16


class Sink:
    """Listening application that accepts everything on a port."""

    def __init__(self, host: Host, port: int, **conn_opts):
        self.host = host
        self.port = port
        self.bytes_received = 0
        self._consumers: Dict[ConnKey, Callable[[int], None]] = {}
        host.listen(port, on_accept=self._accept, **conn_opts)

    def _accept(self, conn: TcpConnection) -> None:
        # partial, not a lambda: connection callbacks are reachable from
        # the engine heap, which checkpoint/restore pickles.
        conn.on_data = partial(self._on_data, conn)

    def _on_data(self, conn: TcpConnection, nbytes: int) -> None:
        self.bytes_received += nbytes
        consumer = self._consumers.get(conn.key())
        if consumer is not None:
            consumer(nbytes)

    def register_for(self, sender_conn: TcpConnection,
                     consumer: Callable[[int], None]) -> None:
        """Route deliveries of ``sender_conn``'s bytes to ``consumer``.

        The receiver-side key is the mirror of the sender's key.
        """
        key = (sender_conn.raddr, sender_conn.rport,
               sender_conn.laddr, sender_conn.lport)
        self._consumers[key] = consumer


class EchoSink:
    """Server half of the ping-pong probe: echo every full request."""

    def __init__(self, host: Host, port: int, **conn_opts):
        self._pending: Dict[ConnKey, int] = {}
        host.listen(port, on_accept=self._accept, **conn_opts)

    def _accept(self, conn: TcpConnection) -> None:
        self._pending[conn.key()] = 0
        conn.on_data = partial(self._on_data, conn)

    def _on_data(self, conn: TcpConnection, nbytes: int) -> None:
        acc = self._pending[conn.key()] + nbytes
        while acc >= PROBE_MSG_BYTES:
            acc -= PROBE_MSG_BYTES
            conn.send(PROBE_MSG_BYTES)
        self._pending[conn.key()] = acc


class BulkSender:
    """iperf stand-in: a single long-lived or fixed-size transfer."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: str,
        port: int,
        size_bytes: Optional[int] = None,
        start_at: float = 0.0,
        send_at: Optional[float] = None,
        stop_at: Optional[float] = None,
        conn_opts: Optional[dict] = None,
        on_start: Optional[Callable[["BulkSender"], None]] = None,
    ):
        self.sim = sim
        self.host = host
        self.dst = dst
        self.port = port
        self.size_bytes = size_bytes
        self.send_at = send_at
        self.stop_at = stop_at
        self.conn_opts = conn_opts or {}
        self.conn: Optional[TcpConnection] = None
        self.started_at: Optional[float] = None
        self.on_start = on_start
        sim.schedule_at(start_at, self._start)

    def _start(self) -> None:
        self.started_at = self.sim.now
        self.conn = self.host.connect(self.dst, self.port, **self.conn_opts)
        self.conn.on_established = self._established
        if self.on_start is not None:
            self.on_start(self)

    def _established(self) -> None:
        assert self.conn is not None
        if self.send_at is not None and self.send_at > self.sim.now:
            # Pre-established connection; the data phase starts on cue
            # (incast methodology: connect first, then the storm).
            self.sim.schedule_at(self.send_at, self._established_now)
            return
        self._established_now()

    def _established_now(self) -> None:
        if self.size_bytes is None:
            if self.stop_at is not None and self.stop_at <= self.sim.now:
                # Established at or after its stop: nothing left to send.
                self.conn.close()
                return
            self.conn.send_forever()
            if self.stop_at is not None:
                self.sim.schedule_at(self.stop_at, self._stop)
        else:
            self.conn.send(self.size_bytes)
            self.conn.close()

    def _stop(self) -> None:
        if self.conn is not None:
            self.conn.unlimited_data = False
            self.conn.close()

    @property
    def bytes_acked(self) -> int:
        return self.conn.bytes_acked_total if self.conn is not None else 0

    def goodput_bps(self, duration_s: float) -> float:
        """Average goodput over ``duration_s`` of sending time."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self.bytes_acked * 8.0 / duration_s


class PingPong:
    """sockperf stand-in: request/response RTT probe.

    Two modes, mirroring sockperf's:

    * **ping-pong** (default): the next request goes out ``interval_s``
      after the previous response lands, so at most one message is in
      flight;
    * **pipelined** (``pipelined=True``, sockperf's under-load mode):
      requests go out every ``interval_s`` unconditionally and responses
      are matched FIFO — this keeps producing samples even when the path
      is so lossy that individual requests take many RTOs (the Fig. 16
      coexistence trap), at the cost of measuring queueing behind one's
      own earlier requests.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: str,
        port: int,
        recorder: RttRecorder,
        interval_s: float = 0.001,
        warmup_s: float = 0.0,
        pipelined: bool = False,
        conn_opts: Optional[dict] = None,
    ):
        self.sim = sim
        self.host = host
        self.dst = dst
        self.port = port
        self.recorder = recorder
        self.interval = interval_s
        self.warmup = warmup_s
        self.pipelined = pipelined
        self.conn_opts = conn_opts or {}
        self.conn: Optional[TcpConnection] = None
        self._sent_at: Optional[float] = None
        self._outstanding: List[float] = []
        self._acc = 0
        # Connect as the probe is built (before congestion builds).
        sim.schedule(0.0, self._start)

    def _start(self) -> None:
        self.conn = self.host.connect(self.dst, self.port, **self.conn_opts)
        self.conn.on_established = self._warmed_start
        self.conn.on_data = self._on_response_bytes

    def _warmed_start(self) -> None:
        """Connect early (before congestion builds), ping after warm-up so
        the samples reflect the loaded network only."""
        if self.warmup > 0:
            self.sim.schedule(self.warmup, self._send_request)
        else:
            self._send_request()

    def _send_request(self) -> None:
        assert self.conn is not None
        if self.conn.state != "ESTABLISHED":
            return
        if self.pipelined:
            self._outstanding.append(self.sim.now)
            self.conn.send(PROBE_MSG_BYTES)
            self.sim.schedule(self.interval, self._send_request)
        else:
            self._sent_at = self.sim.now
            self.conn.send(PROBE_MSG_BYTES)

    def _on_response_bytes(self, nbytes: int) -> None:
        self._acc += nbytes
        while self._acc >= PROBE_MSG_BYTES:
            self._acc -= PROBE_MSG_BYTES
            if self.pipelined:
                if self._outstanding:
                    self.recorder.record(self.sim.now - self._outstanding.pop(0))
            else:
                if self._sent_at is not None:
                    self.recorder.record(self.sim.now - self._sent_at)
                    self._sent_at = None
                self.sim.schedule(self.interval, self._send_request)


class MessageStream:
    """Framed messages over one persistent connection, FCT per message.

    The sender calls :meth:`send_message`; completion fires when the
    receiver has delivered the message's last byte (the ``Sink`` routes
    delivery notifications back here).  Messages may overlap: a new send
    while an earlier one is in flight simply queues more bytes, and
    boundaries are tracked cumulatively — matching how the paper's
    fixed-interval "mice" messages behave under congestion.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: str,
        port: int,
        sink: Sink,
        recorder: FctRecorder,
        label: str,
        conn_opts: Optional[dict] = None,
    ):
        self.sim = sim
        self.recorder = recorder
        self.label = label
        self.established = False
        self._delivered = 0
        self._queued = 0
        # (cumulative-boundary, FlowRecord) in send order.
        self._boundaries: List[Tuple[int, FlowRecord]] = []
        self._backlog: List[int] = []     # messages requested pre-establish
        self.on_message_complete: Optional[Callable[[FlowRecord], None]] = None
        # Open the connection now (works mid-run too).
        self.conn = host.connect(dst, port, **(conn_opts or {}))
        self.conn.on_established = self._established_cb
        sink.register_for(self.conn, self._on_delivered)

    def _established_cb(self) -> None:
        self.established = True
        backlog, self._backlog = self._backlog, []
        for size in backlog:
            self._enqueue(size)

    # ------------------------------------------------------------------
    def send_message(self, size_bytes: int) -> FlowRecord:
        """Queue one message now; returns its (open) flow record."""
        if size_bytes <= 0:
            raise ValueError("message size must be positive")
        record = self.recorder.open(self.label, size_bytes, self.sim.now)
        self._queued += size_bytes
        self._boundaries.append((self._queued, record))
        if self.established:
            self._enqueue(size_bytes)
        else:
            self._backlog.append(size_bytes)
        return record

    def send_every(self, size_bytes: int, interval_s: float,
                   until: float) -> None:
        """Fixed-interval sends (the 16 KB / 100 ms mice of §5.2)."""
        def tick() -> None:
            if self.sim.now > until:
                return
            self.send_message(size_bytes)
            self.sim.schedule(interval_s, tick)
        tick()

    # ------------------------------------------------------------------
    def _enqueue(self, size_bytes: int) -> None:
        self.conn.send(size_bytes)

    def _on_delivered(self, nbytes: int) -> None:
        self._delivered += nbytes
        while self._boundaries and self._delivered >= self._boundaries[0][0]:
            _boundary, record = self._boundaries.pop(0)
            record.end = self.sim.now
            if self.on_message_complete is not None:
                self.on_message_complete(record)
