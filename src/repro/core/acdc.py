"""The AC/DC vSwitch datapath (§3, §4).

One :class:`AcdcVswitch` instance sits in each host's packet path (the
OVS stand-in) and combines the pieces of ``repro.core``:

* **egress data** (VM → wire): flow-table lookup, conntrack ``snd_nxt``
  update, ECT marking (+ reserved ``vm_ect`` bit), optional policing of
  non-conforming stacks;
* **egress ACKs** (VM → wire): the receiver module piggy-backs its
  total/marked byte counters as a PACK option, or emits a dedicated FACK
  when the option would not fit in the MTU;
* **ingress data** (wire → VM): receiver-module counter update, then CE/ECN
  scrubbing so the VM never reacts to congestion on its own;
* **ingress ACKs** (wire → VM): feedback extraction (FACKs are consumed),
  conntrack ACK classification, the Fig. 5 DCTCP computation, and RWND
  enforcement honouring the window scale snooped from the handshake.

Every action counts into an :class:`~repro.core.ops.OpsCounter`, which is
what the Fig. 11/12 CPU-overhead model consumes.  The datapath bumps
``ops.counts[<op>]`` directly, branch by branch (DESIGN.md §3): the dict
is pre-seeded with the op vocabulary, so a misspelt name still raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, TYPE_CHECKING

from ..analysis import sanitize
from ..net.packet import ECN_ECT0, FlowKey, Packet
from ..obs import WARNING, FlightRecorder, ObsContext
from ..sim.timers import Timer
from .ecn import mark_egress_data, scrub_ingress_ack, scrub_ingress_data
from .enforcement import Policer, WindowEnforcer
from .flow_table import FlowEntry, FlowTable
from .ops import OpsCounter
from .policy import FlowPolicy, PolicyEngine
from .vswitch_cc import make_vswitch_cc

if TYPE_CHECKING:  # pragma: no cover
    from ..net.host import Host

#: window-sample callback: (flow key, virtual time, window bytes)
WindowCallback = Callable[[FlowKey, float, int], None]


@dataclass
class AcdcConfig:
    """Tunables of the datapath; defaults match the paper's deployment."""

    enforce: bool = True                 # rewrite RWND on ACKs to the VM
    log_only: bool = False               # Fig. 9: compute but never rewrite
    police: bool = False                 # drop data beyond the window
    policing_slack_segments: int = 2
    hide_ecn: bool = True                # strip ECE from ACKs to the VM
    feedback_mode: str = "pack"          # "pack" (FACK fallback) | "fack-only"
    min_wnd_bytes: Optional[int] = None  # None -> 1 MSS (byte-granular floor)
    inactivity_timeout: float = 0.010    # timeout inference (§3.1), = RTOmin
    # §3.3 flexibility: push a fabricated window update to the VM when the
    # window changes while no ACKs are flowing (after an inferred timeout).
    proactive_window_updates: bool = False
    gc_interval: float = 1.0
    idle_timeout: float = 30.0
    # Runtime invariant sanitizer (repro.analysis.sanitize): True/False
    # forces it for this datapath, None defers to REPRO_SANITIZE.
    sanitize: Optional[bool] = None
    # Structured tracing (repro.obs): True/False forces it for this
    # datapath, None defers to whether an ObsContext was supplied.
    trace: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.feedback_mode not in ("pack", "fack-only"):
            raise ValueError(f"unknown feedback mode {self.feedback_mode!r}")


class AcdcVswitch:
    """Administrator Control over Datacenter TCP, in the vSwitch."""

    def __init__(
        self,
        host: "Host",
        config: Optional[AcdcConfig] = None,
        policy: Optional[PolicyEngine] = None,
        ops: Optional[OpsCounter] = None,
        window_cb: Optional[WindowCallback] = None,
        guard=None,
        obs: Optional[ObsContext] = None,
    ):
        self.sim = host.sim
        self.host = host
        self.config = config if config is not None else AcdcConfig()
        self.policy = policy if policy is not None else PolicyEngine()
        self.ops = ops if ops is not None else OpsCounter()
        self.window_cb = window_cb
        self.mss = host.mss
        self.mtu = host.mtu
        self.table = FlowTable(
            self.sim, gc_interval=self.config.gc_interval,
            idle_timeout=self.config.idle_timeout,
        )
        self.table.start_gc()
        self.policer = Policer(self.config.policing_slack_segments)
        # Invariant probes (repro.analysis.sanitize).  None when off, so
        # the datapath pays one `is None` test per hook and nothing else.
        sanitize_on = (self.config.sanitize if self.config.sanitize is not None
                       else sanitize.is_enabled())
        # Structured tracing (repro.obs): same `is None` contract.  The
        # flight recorder arms under *either* debugging mode so invariant
        # violations always come with a decision log.
        trace_on = (self.config.trace if self.config.trace is not None
                    else obs is not None)
        if trace_on and obs is None:
            obs = ObsContext(self.sim)
        self.obs = obs
        self.trace = obs.bus if (trace_on and obs is not None) else None
        self.flight = (FlightRecorder(self.sim, name=str(host.addr))
                       if (trace_on or sanitize_on) else None)
        if obs is not None:
            obs.register_vswitch(self)
        # In-band telemetry (repro.obs.int): sink/echo/view logic for
        # this datapath.  Same `is None` contract; attached via
        # :meth:`attach_int` by the run's IntTelemetry context.
        self.int_tel = None
        self.sanitizer = sanitize.DatapathSanitizer(self) if sanitize_on else None
        # Adversarial-tenant protection (repro.guard.Guard, optional):
        # conformance monitoring, escalation, watchdog load shedding.
        # Attached after tracing so the guard's ledgers can bind the bus.
        self.guard = guard
        if guard is not None:
            guard.attach(self)
        # Fault-recovery accounting (see repro.faults): state losses this
        # vSwitch suffered and flow entries rebuilt mid-flow afterwards.
        self.restarts = 0
        self.resurrections = 0

    def attach_int(self, telemetry) -> None:
        """Install the run's INT context (see repro.obs.int)."""
        self.int_tel = telemetry

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------
    def _apply_config_floor(self, entry: FlowEntry) -> None:
        if self.config.min_wnd_bytes is not None:
            entry.vswitch_cc.min_wnd = self.config.min_wnd_bytes

    def _ensure_both_directions(self, pkt: Packet) -> None:
        """SYN handling: create entries for both flow directions (§4)."""
        tr = self.trace
        for key in (pkt.flow_key(), pkt.reverse_key()):
            if tr is not None and key not in self.table.entries:
                tr.emit("flow.state", flow=key, component="vswitch",
                        state="insert")
            entry = self.table.ensure(key, self.policy.policy_for(key), self.mss)
            self._apply_config_floor(entry)
        self.ops.counts["flow_insert"] += 2

    def _resurrect(self, key: FlowKey) -> FlowEntry:
        """Rebuild a flow entry mid-flow, after the table lost its state.

        The entry starts from conservative defaults: a fresh congestion
        window, ``peer_wscale`` 0 (the handshake is long gone, so window
        rewrites are capped at 64 KB until re-learned — never an unsafe
        *upward* lie), and a conntrack that seeds itself from the first
        packet it sees (:meth:`ConnTrack.on_egress_data` /
        :meth:`ConnTrack.on_ingress_ack`).
        """
        entry = self.table.ensure(key, self.policy.policy_for(key), self.mss)
        self._apply_config_floor(entry)
        self.resurrections += 1
        self.ops.counts["flow_resurrect"] += 1
        if self.trace is not None:
            self.trace.emit("flow.state", flow=key, component="vswitch",
                            severity=WARNING, state="resurrect")
        if self.flight is not None:
            self.flight.note("flow.state", key, state="resurrect")
        if self.sanitizer is not None:
            # The rebuilt entry restarts its window tracking from scratch;
            # stale edge high-water would read as a (false) retreat.
            self.sanitizer.forget_flow(key)
        return entry

    # ------------------------------------------------------------------
    # Live policy mutation (repro.control)
    # ------------------------------------------------------------------
    def apply_policy(self, policy: FlowPolicy) -> int:
        """Hot-swap the default policy and migrate every live flow to it.

        The control-plane path to "retune this tenant without restarting
        its flows": the policy engine's default is replaced (so new flows
        pick it up at insert) and every existing entry is migrated in
        place — conntrack, feedback counters, peer wscale and guard state
        all survive; only the policy reference and (when needed) the
        congestion-control object change.  Returns the number of entries
        migrated.  Explicit rules (``add_rule``/``insert_rule``, e.g. the
        guard's penalty clamps) still take precedence for new flows, and
        entries pinned by such a rule are left alone.
        """
        self.policy.default = policy
        migrated = 0
        for entry in self.table.entries.values():
            if self.policy.policy_for(entry.key) is not policy:
                continue  # an explicit rule owns this flow
            self._migrate_entry(entry, policy)
            migrated += 1
        return migrated

    def _migrate_entry(self, entry: FlowEntry, policy: FlowPolicy) -> None:
        """Move one live entry to ``policy`` without dropping its state.

        Same algorithm: retune the existing CC in place (beta, clamp).
        Different algorithm: build the new CC and carry the operating
        point over — current window (re-clamped into the new band),
        ssthresh, and the once-per-window gates re-anchored at the
        current ``snd_una`` so the first post-migration mark/loss is
        neither double-counted nor ignored.  The window never jumps *up*
        past the new clamp, so enforcement stays safe mid-flight; the
        sanitizer's advertised-edge high-water is untouched because a
        shrinking window merely stops the edge advancing (never a
        retreat).
        """
        old_policy, old_cc = entry.policy, entry.vswitch_cc
        entry.policy = policy
        if policy.enforced:
            max_wnd = policy.max_rwnd if policy.max_rwnd is not None else (1 << 30)
            if policy.algorithm == old_cc.name and old_policy.enforced:
                old_cc.beta = policy.beta
                old_cc.max_wnd = max_wnd
                cc = old_cc
            else:
                cc = make_vswitch_cc(policy.algorithm, mss=self.mss,
                                     beta=policy.beta,
                                     min_wnd_bytes=old_cc.min_wnd,
                                     max_wnd_bytes=max_wnd)
                cc.wnd = min(max(old_cc.wnd, float(cc.min_wnd)),
                             float(cc.max_wnd))
                cc.ssthresh = min(old_cc.ssthresh, float(cc.max_wnd))
                cc.cuts = old_cc.cuts
                cc.loss_events = old_cc.loss_events
                una = entry.conntrack.snd_una
                if una is not None:
                    cc._seed_gates(una)
                entry.vswitch_cc = cc
            self._apply_config_floor(entry)
            # Track the migrated CC's clamped operating point in both
            # directions: tightening takes effect on the next ACK rewrite,
            # loosening (rollback) lets the window grow again immediately.
            entry.enforced_wnd = cc.window_bytes
        self.ops.counts["flow_migrate"] += 1
        if self.trace is not None:
            self.trace.emit("flow.state", flow=entry.key,
                            component="vswitch", state="migrate",
                            algorithm=policy.algorithm,
                            wnd_bytes=entry.enforced_wnd)
        if self.flight is not None:
            self.flight.note("flow.state", entry.key, state="migrate",
                             algorithm=policy.algorithm)

    def restart(self) -> None:
        """Simulate a vSwitch crash/upgrade: all flow-table state is lost.

        Subsequent packets recreate their entries mid-flow via
        :meth:`_resurrect`; the VMs' connections themselves survive (§4 —
        the flow table is soft state inferred from traffic).
        """
        for key in list(self.table.entries):
            self.table.remove(key)
        self.restarts += 1
        if self.trace is not None:
            self.trace.emit("flow.state", component="vswitch",
                            severity=WARNING, state="restart")
        if self.flight is not None:
            self.flight.note("flow.state", state="restart")

    # ------------------------------------------------------------------
    # Egress: VM -> wire
    # ------------------------------------------------------------------
    def egress(self, pkt: Packet) -> Optional[Packet]:
        ops = self.ops
        ops.packets_egress += 1
        ops.counts["flow_lookup"] += 1
        ops.counts["forward"] += 1  # AC/DC is OVS forwarding *plus* CC
        if pkt.syn:
            self._ensure_both_directions(pkt)
            entry = self.table.lookup(pkt.flow_key())
            if entry is not None:
                entry.conntrack.on_egress_syn(pkt, now=self.sim.now)
                if entry.policy.enforced:
                    self._mark_control_packet(pkt)
            return pkt
        if pkt.payload_len > 0:
            out = self._egress_data(pkt)
            if out is None:
                return None
        if pkt.ack and pkt.payload_len == 0:
            # One lookup serves both the feedback and the marking.
            entry = self.table.lookup(pkt.reverse_key())
            if entry is not None and entry.policy.enforced:
                self._egress_feedback(entry, pkt)
                # "All egress packets are marked to be ECN-capable"
                # (§3.2): a pure ACK through a congested port must not
                # hit the non-ECT WRED drop profile either.
                self._mark_control_packet(pkt)
        if pkt.fin:
            self.table.mark_fin(pkt.flow_key())
            self.table.mark_fin(pkt.reverse_key())
        return pkt

    def _mark_control_packet(self, pkt: Packet) -> None:
        """ECT-mark a non-data packet, remembering the VM's own setting."""
        if not pkt.ect:
            pkt.vm_ect = False
            pkt.ecn = ECN_ECT0
            counts = self.ops.counts
            counts["ecn_mark"] += 1
            counts["checksum_recalc"] += 1
        else:
            pkt.vm_ect = True

    def _egress_data(self, pkt: Packet) -> Optional[Packet]:
        entry = self.table.lookup(pkt.flow_key())
        if entry is None:
            # Data with no SYN on record: the flow predates this vSwitch's
            # state (restart, migration).  Rebuild the entry mid-flow.
            entry = self._resurrect(pkt.flow_key())
        if not entry.policy.enforced:
            return pkt
        san = self.sanitizer
        prev_nxt = entry.conntrack.snd_nxt if san is not None else None
        entry.conntrack.on_egress_data(pkt)
        counts = self.ops.counts
        counts["seq_update"] += 1
        if san is not None:
            san.check_serial_progress(entry.key, None, None,
                                      prev_nxt, entry.conntrack.snd_nxt)
        if entry.shed:
            # Watchdog pass-through: stats above still collected, but no
            # marking, guarding or policing — the guest stack is on its own.
            return pkt
        if mark_egress_data(pkt):
            counts["ecn_mark"] += 1
            counts["checksum_recalc"] += 1
            if self.trace is not None:
                self.trace.emit("ecn.mark", flow=entry.key,
                                component="vswitch", direction="egress")
        entry.vm_ect = pkt.vm_ect
        if self.guard is not None and not self.guard.on_egress_data(entry, pkt):
            return None
        if self.config.police:
            counts["policing_check"] += 1
            snd_una = entry.conntrack.snd_una
            base = snd_una if snd_una is not None else pkt.seq
            if not self.policer.allow(pkt, base, entry.enforced_wnd, self.mss,
                                      wscale=entry.peer_wscale):
                if self.trace is not None:
                    self.trace.emit("policer.drop", flow=entry.key,
                                    component="vswitch", severity=WARNING,
                                    reason="window_overrun")
                if self.flight is not None:
                    self.flight.note("policer.drop", entry.key,
                                     reason="window_overrun", seq=pkt.seq)
                return None
        self._arm_inactivity(entry)
        return pkt

    def _egress_feedback(self, entry: FlowEntry, ack: Packet) -> None:
        """Receiver module: report the counters of ``entry`` (the enforced
        reverse, i.e. data, direction of ``ack``)."""
        tel = self.int_tel
        if tel is not None:
            # INT echo rides the same piggyback direction as the PACK
            # option, but out of band (it never changes the ACK's size).
            tel.on_egress_ack(entry, ack)
        feedback = entry.receiver_feedback
        if feedback.total_bytes == 0:
            return  # nothing to report yet
        piggyback = (
            self.config.feedback_mode == "pack"
            and feedback.can_piggyback(ack, self.mtu)
        )
        if piggyback:
            feedback.attach_pack(ack)
            counts = self.ops.counts
            counts["pack_attach"] += 1
            counts["checksum_recalc"] += 1
        else:
            fack = feedback.make_fack(ack)
            self.ops.counts["fack_create"] += 1
            self.host.wire_out(fack)
        if self.sanitizer is not None:
            self.sanitizer.register_feedback_report(
                entry.key, feedback.total_bytes, feedback.marked_bytes)

    # ------------------------------------------------------------------
    # Ingress: wire -> VM
    # ------------------------------------------------------------------
    def ingress(self, pkt: Packet) -> Optional[Packet]:
        ops = self.ops
        ops.packets_ingress += 1
        ops.counts["flow_lookup"] += 1
        ops.counts["forward"] += 1
        if pkt.syn:
            self._ingress_syn(pkt)
            return pkt
        if pkt.ack:
            consumed = self._ingress_ack(pkt)
            if consumed:
                return None
        if pkt.payload_len > 0:
            self._ingress_data(pkt)
        if pkt.fin:
            self.table.mark_fin(pkt.flow_key())
            self.table.mark_fin(pkt.reverse_key())
        return pkt

    def _ingress_syn(self, pkt: Packet) -> None:
        """Handshake snooping: learn the remote peer's window scale (§3.3)."""
        self._ensure_both_directions(pkt)
        sender_entry = self.table.lookup(pkt.reverse_key())
        if sender_entry is not None and pkt.wscale is not None:
            sender_entry.peer_wscale = pkt.wscale
        if pkt.ack and sender_entry is not None:
            # SYN-ACK also acknowledges our SYN.
            sender_entry.conntrack.on_ingress_ack(pkt, self.sim.now)
        if (sender_entry is not None and sender_entry.policy.enforced
                and not self.config.log_only and scrub_ingress_data(pkt)):
            self.ops.counts["ecn_strip"] += 1
            self.ops.counts["checksum_recalc"] += 1

    def _ingress_ack(self, pkt: Packet) -> bool:
        """Sender module on an incoming ACK.  Returns True if consumed."""
        entry = self.table.lookup(pkt.reverse_key())
        if entry is None:
            # ACK for a flow we have no entry for: state was lost while
            # the transfer was in progress.  Resurrect the sender-role
            # entry; conntrack seeds snd_una from this very ACK.
            entry = self._resurrect(pkt.reverse_key())
        tel = self.int_tel
        if tel is not None:
            # Before any early return: INT echoes are vSwitch-to-vSwitch
            # metadata and must be terminated here regardless of policy,
            # shed state or FACK consumption.
            tel.on_ingress_ack(self, entry, pkt)
        if not entry.policy.enforced:
            return bool(pkt.is_fack)
        san = self.sanitizer
        prev_una = entry.conntrack.snd_una if san is not None else None
        prev_nxt = entry.conntrack.snd_nxt if san is not None else None
        verdict = entry.conntrack.on_ingress_ack(pkt, self.sim.now)
        counts = self.ops.counts
        counts["seq_update"] += 1
        pack = pkt.pack
        if san is not None:
            san.check_serial_progress(entry.key, prev_una,
                                      entry.conntrack.snd_una,
                                      prev_nxt, entry.conntrack.snd_nxt)
            if pack is not None:
                san.check_feedback_consume(entry.key, pack)
        # Half the ACK-flagged arrivals are data: no report, no deltas.
        total_delta, marked_delta = (
            entry.feedback_reader.consume(pack) if pack is not None
            else (0, 0))
        if san is not None:
            san.check_feedback_deltas(entry.key, total_delta, marked_delta)
        if pack is not None:
            counts["feedback_extract"] += 1
            pkt.pack = None  # stripped before the VM can see it
        if entry.shed:
            # Watchdog pass-through: no CC, no rewrite, no ECN hiding —
            # the VM sees its own feedback and its stack takes over.
            # FACKs are still consumed (they are vSwitch-to-vSwitch).
            return bool(pkt.is_fack)
        cc = entry.vswitch_cc
        wnd = cc.on_ack(
            snd_una=entry.conntrack.snd_una or 0,
            snd_nxt=entry.conntrack.snd_nxt or 0,
            newly_acked=verdict.newly_acked,
            feedback_total=total_delta,
            feedback_marked=marked_delta,
            loss=verdict.loss_detected,
        )
        counts["cc_update"] += 1
        if san is not None:
            san.check_window_value(entry.key, wnd, cc)
        entry.enforced_wnd = wnd
        if self.window_cb is not None:
            self.window_cb(entry.key, self.sim.now, wnd)
        if self.guard is not None:
            self.guard.on_ingress_ack(entry, pkt, verdict,
                                      total_delta, marked_delta)
        if pkt.is_fack:
            return True  # dropped after logging the data (§3.2)
        rewritten = False
        if self.config.enforce and not self.config.log_only:
            rewritten = entry.enforcer.enforce(pkt, wnd, entry.peer_wscale)
            if rewritten:
                counts["rwnd_rewrite"] += 1
                counts["checksum_recalc"] += 1
        # The flight note lands *before* the sanitizer check so a lying
        # rewrite's dump contains the offending decision.
        if self.flight is not None:
            self.flight.note("rwnd.rewrite", entry.key, wnd_bytes=wnd,
                             rewritten=rewritten, rwnd_field=pkt.rwnd_field,
                             wscale=entry.peer_wscale)
        if san is not None and self.config.enforce and not self.config.log_only:
            san.check_rewrite(entry.key, pkt, wnd, entry.peer_wscale,
                              rewritten)
        # Emitted in log-only mode too (rewritten=False): Fig. 9 overlays
        # the would-be vSwitch window against the guest's CWND.
        if self.trace is not None:
            self.trace.emit(
                "rwnd.rewrite", flow=entry.key, component="vswitch",
                wnd_bytes=wnd, rewritten=rewritten,
                visible_bytes=pkt.advertised_window(entry.peer_wscale))
        if san is not None:
            guard_state = entry.guard_state
            san.note_advertised_edge(
                entry.key, pkt.ack_seq,
                pkt.advertised_window(entry.peer_wscale),
                guard_edge=(guard_state.advertised_edge
                            if guard_state is not None else None))
        # In log-only mode the host stack stays in charge, so it must keep
        # seeing its own congestion feedback (Fig. 9 methodology).
        if self.config.hide_ecn and not self.config.log_only:
            if scrub_ingress_ack(pkt):
                counts["ecn_strip"] += 1
                counts["checksum_recalc"] += 1
            # Restore the IP codepoint of *pure* ACKs; a data packet that
            # carries an ACK is scrubbed by the receiver module instead
            # (after its CE mark has been counted).
            if pkt.payload_len == 0 and scrub_ingress_data(pkt):
                counts["ecn_strip"] += 1
                counts["checksum_recalc"] += 1
        if entry.conntrack.bytes_outstanding > 0:
            self._arm_inactivity(entry)
        elif entry.inactivity_timer is not None:
            entry.inactivity_timer.stop()
        return False

    def _ingress_data(self, pkt: Packet) -> None:
        """Receiver module on arriving data: count, then scrub ECN."""
        entry = self.table.lookup(pkt.flow_key())
        if entry is None:
            # No SYN on record for this data: receiver-role resurrection
            # (the feedback counters restart from zero; the sender module
            # on the far side resyncs its reader to the new baseline).
            entry = self._resurrect(pkt.flow_key())
        if not entry.policy.enforced:
            return
        entry.receiver_feedback.on_data(pkt)
        counts = self.ops.counts
        counts["counters_update"] += 1
        tel = self.int_tel
        if tel is not None:
            # INT sink: absorb (validated) and strip the hop stack.
            tel.on_ingress_data(self, entry, pkt)
        if self.sanitizer is not None:
            self.sanitizer.check_feedback_counters(
                entry.key, entry.receiver_feedback.total_bytes,
                entry.receiver_feedback.marked_bytes, "receiver counters")
        if entry.shed:
            return  # pass-through: the VM keeps its CE marks
        if self.config.log_only or not self.config.hide_ecn:
            # The VM keeps its CE marks: log-only mode (Fig. 9) or the
            # hide-ECN ablation, where the guest reacts on its own too.
            return
        if scrub_ingress_data(pkt):
            counts["ecn_strip"] += 1
            counts["checksum_recalc"] += 1

    # ------------------------------------------------------------------
    # Timeout inference (§3.1)
    # ------------------------------------------------------------------
    def _arm_inactivity(self, entry: FlowEntry) -> None:
        if entry.inactivity_timer is None:
            # partial, not a lambda: timer callbacks live in the engine
            # heap, which must stay picklable for checkpoint/restore
            # (repro.recovery).
            entry.inactivity_timer = Timer(
                self.sim, partial(self._inactivity_fired, entry))
        # Adapt to the flow's ACK cadence: on a long (WAN) path, ACKs
        # legitimately arrive one RTT apart, and a fixed datacenter-scale
        # timer would infer a timeout every round trip.
        delay = max(self.config.inactivity_timeout,
                    4.0 * entry.conntrack.ack_gap_estimate)
        entry.inactivity_timer.start(delay)

    def _inactivity_fired(self, entry: FlowEntry) -> None:
        if entry.key not in self.table.entries:
            return
        if entry.conntrack.infer_timeout():
            wnd = entry.vswitch_cc.on_timeout(
                entry.conntrack.snd_una or 0, entry.conntrack.snd_nxt or 0)
            entry.enforced_wnd = wnd
            if self.trace is not None:
                self.trace.emit("flow.state", flow=entry.key,
                                component="vswitch", severity=WARNING,
                                state="timeout", wnd_bytes=wnd)
            if self.flight is not None:
                self.flight.note("flow.state", entry.key, state="timeout",
                                 wnd_bytes=wnd)
            if self.window_cb is not None:
                self.window_cb(entry.key, self.sim.now, wnd)
            if self.guard is not None and not entry.shed:
                self.guard.on_timeout(entry)
            if self.config.proactive_window_updates:
                # No ACKs are flowing to carry the new window, so tell
                # the VM directly (§3.3's fabricated window update).
                self.send_window_update(entry.key)

    # ------------------------------------------------------------------
    # Fabricated control packets (§3.3)
    # ------------------------------------------------------------------
    def send_window_update(self, key: FlowKey) -> bool:
        """Deliver a fabricated window update for flow ``key`` to the VM.

        Useful when the enforced window grew but no ACKs are flowing.
        """
        entry = self.table.lookup(key)
        if entry is None or entry.conntrack.snd_una is None:
            return False
        update = WindowEnforcer.make_window_update(
            (key[2], key[3], key[0], key[1]),
            entry.conntrack.snd_una, entry.enforced_wnd, entry.peer_wscale)
        if self.guard is not None:
            self.guard.note_advertisement(entry, entry.conntrack.snd_una,
                                          entry.enforced_wnd)
        self._note_fabricated_edge(entry, update)
        self.host.deliver(update)
        return True

    def _note_fabricated_edge(self, entry: FlowEntry, pkt: Packet) -> None:
        """Sanitizer bookkeeping for §3.3 fabricated control packets."""
        if self.sanitizer is None:
            return
        guard_state = entry.guard_state
        self.sanitizer.note_advertised_edge(
            entry.key, pkt.ack_seq, pkt.advertised_window(entry.peer_wscale),
            guard_edge=(guard_state.advertised_edge
                        if guard_state is not None else None))

    def send_dupacks(self, key: FlowKey, count: int = 3) -> bool:
        """Deliver fabricated duplicate ACKs to trigger fast retransmit in
        the VM (for stacks whose RTO is far larger than AC/DC's)."""
        entry = self.table.lookup(key)
        if entry is None or entry.conntrack.snd_una is None:
            return False
        if self.guard is not None:
            self.guard.note_advertisement(entry, entry.conntrack.snd_una,
                                          entry.enforced_wnd)
        for _ in range(count):
            dup = WindowEnforcer.make_dupack(
                (key[2], key[3], key[0], key[1]),
                entry.conntrack.snd_una, entry.enforced_wnd, entry.peer_wscale)
            self._note_fabricated_edge(entry, dup)
            self.host.deliver(dup)
        return True


class PlainOvs:
    """The unmodified-OVS baseline: forward and count, nothing else."""

    def __init__(self, host: "Host", ops: Optional[OpsCounter] = None):
        self.host = host
        self.ops = ops if ops is not None else OpsCounter()

    def egress(self, pkt: Packet) -> Optional[Packet]:
        ops = self.ops
        ops.packets_egress += 1
        ops.counts["flow_lookup"] += 1
        ops.counts["forward"] += 1
        return pkt

    def ingress(self, pkt: Packet) -> Optional[Packet]:
        ops = self.ops
        ops.packets_ingress += 1
        ops.counts["flow_lookup"] += 1
        ops.counts["forward"] += 1
        return pkt
