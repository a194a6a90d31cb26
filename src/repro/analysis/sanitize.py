"""Opt-in runtime invariant sanitizer for the AC/DC datapath.

The probes assert, on every packet the vSwitch touches, the window-state
invariants the paper's argument rests on (§3.1–3.3) plus the simulation
substrate's own conservation laws:

* **serial monotonicity** — conntrack's ``snd_una``/``snd_nxt`` never
  retreat in RFC 1982 serial order, and the advertised window edge the
  VM is shown advances as a *serial* maximum (a raw ``max()`` breaks at
  the 2^32 wrap — the exact bug class PR 1 retrofitted away);
* **RWND encode→decode fidelity** — every window rewrite, re-decoded
  under the negotiated wscale, round-trips through an independent
  re-implementation of the 16-bit/wscale encoding (§3.3);
* **feedback consistency** — PACK/FACK counters satisfy
  ``marked ≤ total``, deltas are non-negative, and no consumed report
  exceeds the receiver-module high-water mark registered for the flow
  (§3.2, cross-vSwitch);
* **switch byte conservation** — per port: offered − dropped − released
  bytes equals the shared-buffer occupancy; pool-wide: the pool's
  ``used`` equals the sum of its queues and stays within capacity;
* **no event behind the clock** — the engine refuses to schedule in the
  past (always-on) and, under the sanitizer, trips on any popped event
  whose deadline is behind the clock (a mutated-Event tripwire).

Enablement is one process-wide switch: ``REPRO_SANITIZE=1`` in the
environment, or :func:`enable` to force it on or off whatever the
environment says.  Each component reads it once, when it is built: an
AC/DC vSwitch then holds these probes and a flight ring, a switch port
its :class:`PortAccounting` tap, and a :class:`~repro.sim.engine.Simulator`
its strict mode — all of them or none, so set the switch before the run
is built.  The datapath probes run as a tap of the vSwitch
(``AcdcVswitch.HOOKS``); when off, the vSwitch holds no sanitizer and
pays one empty-tuple test per hook.

Every violation raises :class:`InvariantViolation` carrying the flow
key, the virtual time and the run seed (:func:`set_run_seed`), so a
failure in CI is replayable locally from the message alone.

This module deliberately re-implements the serial arithmetic and window
encoding with local modular expressions instead of importing the
production helpers — a probe that validates code against itself detects
nothing.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

_SEQ_SPACE = 1 << 32
_SEQ_HALF = 1 << 31

# ---------------------------------------------------------------------------
# Enablement and run context
# ---------------------------------------------------------------------------
_forced: Optional[bool] = None
_run_seed: Optional[int] = None


def is_enabled() -> bool:
    """True if sanitizing is on: :func:`enable` override, else the env."""
    if _forced is not None:
        return _forced
    value = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def enable(on: Optional[bool] = True) -> None:
    """Force sanitizing on/off process-wide; ``None`` restores the env."""
    global _forced  # repro-lint: disable=RL006 (process-wide toggle, configuration not run state)
    _forced = on


def set_run_seed(seed: Optional[int]) -> None:
    """Record the run's master seed for violation diagnostics."""
    global _run_seed  # repro-lint: disable=RL006 (diagnostic label, re-set by every run entry point)
    _run_seed = seed


def run_seed() -> Optional[int]:
    return _run_seed


class InvariantViolation(AssertionError):
    """A runtime invariant probe fired.

    Carries everything needed to replay the failure: which invariant,
    the flow key, the virtual time, and the run seed.
    """

    def __init__(self, invariant: str, detail: str, *,
                 flow=None, sim_time: Optional[float] = None,
                 host: Optional[str] = None,
                 seed: Optional[int] = None,
                 flight_dump: Optional[str] = None):
        self.invariant = invariant
        self.detail = detail
        self.flow = flow
        self.sim_time = sim_time
        self.host = host
        self.seed = seed if seed is not None else run_seed()
        #: Path to the vSwitch's flight-recorder dump (the last N datapath
        #: decisions before the violation), when one was armed — inspect
        #: with ``python -m repro.obs timeline <path>``.
        self.flight_dump = flight_dump
        message = (f"[sanitize:{invariant}] {detail} "
                   f"(flow={flow}, t={sim_time}, host={host}, seed={self.seed})")
        if flight_dump is not None:
            message += f" [flight recorder dump: {flight_dump}]"
        super().__init__(message)

    def __reduce__(self):
        # ``args`` holds the message, not the constructor's arguments:
        # rebuild from those and restore every field (message included),
        # so a violation raised in a pool worker reaches the parent whole.
        return (type(self), (self.invariant, self.detail),
                {**self.__dict__, "args": self.args})


# ---------------------------------------------------------------------------
# Independent arithmetic (NOT imported from repro.net.packet, on purpose)
# ---------------------------------------------------------------------------
def _sdelta(a: int, b: int) -> int:
    """Signed circular distance a − b in [−2^31, 2^31)."""
    return ((a - b + _SEQ_HALF) % _SEQ_SPACE) - _SEQ_HALF


def _encoded_window(window_bytes: int, wscale: int) -> int:
    """Reference 16-bit/wscale encoding: round *up* to the next scale
    unit, clamp to the 16-bit ceiling, decode back to bytes."""
    unit = 1 << wscale
    field = min(0xFFFF, -(-window_bytes // unit))  # ceil division
    return field << wscale


# ---------------------------------------------------------------------------
# Datapath probes (one instance per AcdcVswitch)
# ---------------------------------------------------------------------------
class DatapathSanitizer:
    """Invariant probes for one vSwitch's datapath.

    Cross-vSwitch state (the receiver-module feedback high-water marks)
    lives on the shared :class:`~repro.sim.engine.Simulator` instance,
    so the sender-side and receiver-side probes of one run see each
    other while concurrent runs in one process stay isolated.
    """

    def __init__(self, vswitch) -> None:
        self.sim = vswitch.sim
        self.host = getattr(vswitch.host, "addr", "?")
        self._vswitch = vswitch
        #: flow key -> serial high-water of the advertised window edge.
        self._edges: Dict[Tuple, int] = {}

    # -- plumbing ----------------------------------------------------------
    def _fail(self, invariant: str, detail: str, flow=None) -> None:
        # A violation is terminal for the run, so dump the vSwitch's
        # flight-recorder ring (the last N datapath decisions, including
        # the offending one) and attach the path to the exception.
        dump_path = None
        flight = getattr(self._vswitch, "flight", None)
        if flight is not None and len(flight):
            try:
                dump_path = flight.dump(tag=invariant)
            except OSError:
                dump_path = None  # diagnostics must never mask the failure
        # When tracing is on, the violation (and any flight dump) also
        # lands on the bus, so a traced run's export shows *why* it died
        # next to the datapath events that led up to it.
        trace = getattr(self._vswitch, "trace", None)
        if trace is not None:
            from ..obs.trace import ERROR
            trace.emit("sanitizer.violation", flow=flow,
                       component="sanitize", severity=ERROR,
                       invariant=invariant, detail=detail)
            if dump_path is not None:
                trace.emit("flight.dump", flow=flow, component="sanitize",
                           severity=ERROR, path=str(dump_path),
                           invariant=invariant)
        raise InvariantViolation(invariant, detail, flow=flow,
                                 sim_time=self.sim.now, host=self.host,
                                 flight_dump=dump_path)

    def _feedback_registry(self) -> Dict[Tuple, Tuple[int, int]]:
        reg = getattr(self.sim, "_sanitize_feedback_highwater", None)
        if reg is None:
            reg = {}
            self.sim._sanitize_feedback_highwater = reg
        return reg

    # -- §3.1: conntrack serial monotonicity -------------------------------
    def check_serial_progress(self, key, prev_una: Optional[int],
                              new_una: Optional[int],
                              prev_nxt: Optional[int],
                              new_nxt: Optional[int]) -> None:
        """snd_una / snd_nxt must never retreat in serial order."""
        if prev_una is not None and new_una is not None \
                and _sdelta(new_una, prev_una) < 0:
            self._fail("snd-una-monotonic",
                       f"snd_una retreated {prev_una} -> {new_una} "
                       f"(serial delta {_sdelta(new_una, prev_una)})", key)
        if prev_nxt is not None and new_nxt is not None \
                and _sdelta(new_nxt, prev_nxt) < 0:
            self._fail("snd-nxt-monotonic",
                       f"snd_nxt retreated {prev_nxt} -> {new_nxt} "
                       f"(serial delta {_sdelta(new_nxt, prev_nxt)})", key)

    # -- §3.3: window encoding fidelity ------------------------------------
    def check_rewrite(self, key, pkt, window_bytes: int, wscale: int,
                      rewritten: bool) -> None:
        """The window the VM decodes must match the reference encoding."""
        decoded = pkt.rwnd_field << wscale
        if rewritten:
            want = _encoded_window(window_bytes, wscale)
            if decoded != want:
                self._fail(
                    "rwnd-roundtrip",
                    f"rewrite of {window_bytes}B under wscale {wscale} "
                    f"decodes to {decoded}B, reference encoding is {want}B",
                    key)
            if decoded < min(window_bytes, 0xFFFF << wscale):
                self._fail(
                    "rwnd-roundtrip",
                    f"encoded window {decoded}B lies below the requested "
                    f"{window_bytes}B (downward lie)", key)
        elif decoded > 0 and window_bytes < decoded \
                and _encoded_window(window_bytes, wscale) < decoded:
            # The enforcer left the ACK alone, which is only legitimate
            # when the original advertisement was already no looser than
            # the enforced window's encodable form.
            self._fail(
                "rwnd-enforce-skipped",
                f"ACK passed through advertising {decoded}B while the "
                f"enforced window is {window_bytes}B", key)

    def check_window_value(self, key, window_bytes: int, cc) -> None:
        """The vSwitch CC must emit a window within its configured band."""
        if window_bytes < 0:
            self._fail("cc-window-band",
                       f"negative enforced window {window_bytes}", key)
        max_wnd = getattr(cc, "max_wnd", None)
        if max_wnd is not None and window_bytes > max_wnd:
            self._fail("cc-window-band",
                       f"enforced window {window_bytes}B exceeds the "
                       f"configured ceiling {max_wnd}B", key)

    def note_advertised_edge(self, key, ack_seq: int, visible_window: int,
                             guard_edge: Optional[int] = None) -> None:
        """Track the window edge shown to the VM as a *serial* maximum.

        The high-water must advance serially; if a guard is attached, its
        independently tracked ``advertised_edge`` must agree — the two
        are computed from the same advertisements, so any divergence
        means one side's window arithmetic broke (e.g. a raw max across
        the 2^32 wrap).
        """
        if visible_window < 0:
            self._fail("advertised-edge",
                       f"negative visible window {visible_window}", key)
        candidate = (ack_seq + visible_window) % _SEQ_SPACE
        prev = self._edges.get(key)
        if prev is None or _sdelta(candidate, prev) > 0:
            new = candidate
        else:
            new = prev
        if prev is not None and _sdelta(new, prev) < 0:
            self._fail("advertised-edge",
                       f"edge high-water retreated {prev} -> {new}", key)
        self._edges[key] = new
        if guard_edge is not None and guard_edge != new:
            self._fail(
                "advertised-edge",
                f"guard tracks edge {guard_edge}, sanitizer tracks {new} "
                f"(serial-max divergence)", key)

    def forget_flow(self, key) -> None:
        """Drop per-flow edge state (entry resurrected from scratch)."""
        self._edges.pop(key, None)

    # -- §3.2: feedback-channel consistency --------------------------------
    def check_feedback_counters(self, key, total: int, marked: int,
                                where: str) -> None:
        if marked > total or total < 0 or marked < 0:
            self._fail("feedback-counters",
                       f"{where}: marked {marked}B / total {total}B "
                       "(marked must be within [0, total])", key)

    def register_feedback_report(self, key, total: int, marked: int) -> None:
        """Receiver module shipped a report: record the high-water."""
        self.check_feedback_counters(key, total, marked, "receiver report")
        reg = self._feedback_registry()
        prev_total, prev_marked = reg.get(key, (0, 0))
        reg[key] = (max(prev_total, total), max(prev_marked, marked))

    def check_feedback_consume(self, key, pack) -> None:
        """Sender module consumed a report: it cannot exceed anything the
        receiver module ever generated for this flow."""
        self.check_feedback_counters(key, pack.total_bytes,
                                     pack.marked_bytes, "consumed report")
        reg = self._feedback_registry()
        high = reg.get(key)
        if high is not None and pack.total_bytes > high[0]:
            self._fail(
                "feedback-conservation",
                f"consumed report claims {pack.total_bytes}B total but the "
                f"receiver module only ever counted {high[0]}B", key)

    def check_feedback_deltas(self, key, total_delta: int,
                              marked_delta: int) -> None:
        if total_delta < 0 or marked_delta < 0 or marked_delta > total_delta:
            self._fail("feedback-deltas",
                       f"reader produced deltas total={total_delta} "
                       f"marked={marked_delta}", key)

    # -- the tap: which probes run at which datapath hook --------------------
    def on_decision(self, type_, flow, severity, fields) -> None:
        if fields.get("state") == "resurrect":
            # The rebuilt entry restarts its window tracking from scratch;
            # stale edge high-water would read as a (false) retreat.
            self.forget_flow(flow)

    def on_tracked(self, entry, pack, prev_una, prev_nxt, total,
                   marked) -> None:
        ct = entry.conntrack
        self.check_serial_progress(entry.key, prev_una, ct.snd_una,
                                   prev_nxt, ct.snd_nxt)
        if pack is not None:
            self.check_feedback_consume(entry.key, pack)
        self.check_feedback_deltas(entry.key, total, marked)

    def on_egress_ack(self, entry, ack) -> None:
        feedback = entry.receiver_feedback
        if feedback.total_bytes:
            self.register_feedback_report(
                entry.key, feedback.total_bytes, feedback.marked_bytes)

    def on_window(self, key, now, wnd) -> None:
        self.check_window_value(
            key, wnd, self._vswitch.table.entries[key].vswitch_cc)

    def on_advertised(self, entry, pkt, wnd, rewritten) -> None:
        # A rewrite decision is checked only where one could be made: not
        # in log-only mode, and not on a fabricated packet (rewritten None).
        if rewritten is not None and not self._vswitch.config.log_only:
            self.check_rewrite(entry.key, pkt, wnd, entry.peer_wscale,
                               rewritten)
        guard_state = entry.guard_state
        self.note_advertised_edge(
            entry.key, pkt.ack_seq, pkt.advertised_window(entry.peer_wscale),
            guard_edge=(guard_state.advertised_edge
                        if guard_state is not None else None))

    def on_ingress_data(self, vswitch, entry, pkt, counted) -> None:
        if counted:
            feedback = entry.receiver_feedback
            self.check_feedback_counters(
                entry.key, feedback.total_bytes, feedback.marked_bytes,
                "receiver counters")


# ---------------------------------------------------------------------------
# Switch byte-accounting probes (one per SwitchTxPort when sanitizing)
# ---------------------------------------------------------------------------
class PortAccounting:
    """Conservation tripwire: offered − dropped − released == queued; the
    first tap (``link.PORT_HOOKS``) of a port built while sanitizing."""

    __slots__ = ("name", "queue_id", "shared", "sim", "offered", "dropped",
                 "released")

    def __init__(self, name: str, queue_id: int, shared, sim):
        self.name = name
        self.queue_id = queue_id
        self.shared = shared
        self.sim = sim
        self.offered = 0
        self.dropped = 0
        self.released = 0

    def on_offer(self, nbytes: int) -> None:
        self.offered += nbytes

    def on_drop(self, queue_bytes, nbytes: int) -> None:
        self.dropped += nbytes

    def on_enqueue(self, packet, queue_bytes, nbytes, marked) -> None:
        self.check()

    def on_depart(self, packet, finish, nbytes: int, tx_bytes) -> None:
        self.released += nbytes
        self.check()

    def check(self) -> None:
        """Audit this queue against the shared pool, and the pool itself."""
        shared, sim = self.shared, self.sim
        queued = self.offered - self.dropped - self.released
        actual = shared.queue_bytes(self.queue_id)
        if queued != actual:
            raise InvariantViolation(
                "switch-byte-conservation",
                f"port {self.name}: offered {self.offered} - dropped "
                f"{self.dropped} - released {self.released} = {queued}B "
                f"but the shared pool holds {actual}B for this queue",
                sim_time=getattr(sim, "now", None), host=self.name)
        total = shared.queued_total()
        if shared.used != total or not 0 <= shared.used <= shared.capacity:
            raise InvariantViolation(
                "switch-byte-conservation",
                f"shared pool used={shared.used}B but queues sum to "
                f"{total}B (capacity {shared.capacity}B)",
                sim_time=getattr(sim, "now", None), host=self.name)
