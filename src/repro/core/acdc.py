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

Everything optional (trace bus, flight ring, sanitizer, window
callback, guard, INT) is a *tap* on :attr:`AcdcVswitch.taps`, called
through the :data:`HOOKS` it implements at the §3 decision points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, Optional, TYPE_CHECKING

from ..analysis import sanitize
from ..net.packet import ECN_ECT0, FlowKey, Packet
from ..obs import INFO, WARNING, FlightRecorder, VswitchObs
from ..sim.timers import Timer
from ..taps import bind_tap, init_taps
from ..tcp.connection import MIN_RTO
from .ecn import mark_egress_data, scrub_ingress_ack, scrub_ingress_data
from .enforcement import Policer, WindowEnforcer
from .flow_table import FlowEntry, FlowTable
from .ops import OpsCounter
from .policy import FlowPolicy, PolicyEngine
from .vswitch_cc import make_vswitch_cc

if TYPE_CHECKING:  # pragma: no cover
    from ..net.host import Host
    from ..obs import ObsContext

#: window-sample callback: (flow key, virtual time, window bytes)
WindowCallback = Callable[[FlowKey, float, int], None]

#: The tap vocabulary, one name per §3 decision point; a tap implements
#: any subset.  Each is called with fixed arguments (DESIGN.md §3 says
#: where it fires and which taps implement it):
#:
#: * ``on_decision(type_, flow, severity, fields)`` — a flow
#:   insert/resurrect/migrate/restart/timeout, ECN mark, policer drop,
#:   guard transition or injected fault: one record, the same for the
#:   trace bus and the flight ring;
#: * ``on_ingress_ack(vswitch, entry, pkt)`` — a SYN or an ACK from the
#:   wire met its sender-role entry (``vswitch`` lets one run-level tap
#:   serve every vSwitch);
#: * ``on_tracked(entry, pack, prev_una, prev_nxt, total, marked)`` —
#:   conntrack moved (egress data, ingress ACK) and the ACK's feedback
#:   report, if any, was consumed into the deltas;
#: * ``on_egress_data(entry, pkt) -> bool`` — ECT-marked data of an
#:   enforced, non-shed flow; the only verdict: False drops the packet;
#: * ``on_egress_ack(entry, ack)`` — the receiver module reported (or had
#:   nothing to report) on an egress pure ACK;
#: * ``on_window(key, now, wnd)`` — the vSwitch CC computed a window, on
#:   an ACK or an inferred timeout (a ``WindowCallback`` binds as is);
#: * ``on_ack_signals(entry, pkt, verdict, total, marked)`` — an ACK's
#:   conntrack verdict and feedback deltas, once its window is computed;
#: * ``on_advertised(entry, pkt, wnd, rewritten)`` — the VM is about to
#:   see this window: a (maybe) rewritten ACK, or, with ``rewritten``
#:   None, a fabricated §3.3 update;
#: * ``on_ingress_data(vswitch, entry, pkt, counted)`` — data met its
#:   receiver-role entry (``counted``: the receiver module counted it);
#: * ``on_timeout(entry, wnd)`` — an inferred timeout on a non-shed flow.
HOOKS = ("on_decision", "on_ingress_ack", "on_tracked", "on_egress_data",
         "on_egress_ack", "on_window", "on_ack_signals", "on_advertised",
         "on_ingress_data", "on_timeout")


@dataclass
class AcdcConfig:
    """The datapath settings a run varies; defaults match the paper's
    deployment.  What nothing varies is a constant beside its one reader:
    the policer's slack (``enforcement``), the GC cadence and idle
    timeout (``flow_table``) and RTOmin (``repro.tcp.connection``)."""

    log_only: bool = False               # Fig. 9: compute but never rewrite
    police: bool = False                 # drop data beyond the window
    hide_ecn: bool = True                # strip ECE from ACKs to the VM
    feedback_mode: str = "pack"          # "pack" (FACK fallback) | "fack-only"
    min_wnd_bytes: Optional[int] = None  # None -> 1 MSS (byte-granular floor)

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
        window_cb: Optional[WindowCallback] = None,
        guard=None,
        obs: Optional["ObsContext"] = None,
    ):
        self.sim = host.sim
        self.host = host
        self.config = config if config is not None else AcdcConfig()
        self.policy = policy if policy is not None else PolicyEngine()
        self.ops = OpsCounter()
        self.mss = host.mss
        self.mtu = host.mtu
        self.table = FlowTable(self.sim)
        self.table.start_gc()
        self.policer = Policer()
        # Fault-recovery accounting (see repro.faults): state losses this
        # vSwitch suffered and flow entries rebuilt mid-flow afterwards.
        self.restarts = 0
        self.resurrections = 0
        # The sinks taps write to: the run's trace bus (tracing is on
        # exactly when an ObsContext is given), fed by a VswitchObs tap,
        # and the flight recorder, armed only under sanitizing so that
        # an invariant violation comes with a decision log.  Sanitizing
        # is one process-wide switch (REPRO_SANITIZE / sanitize.enable),
        # read here as by every port and engine built beside this vSwitch.
        tracing = obs is not None
        sanitize_on = sanitize.is_enabled()
        self.trace = obs.bus if tracing else None
        bus_tap = VswitchObs(obs.bus) if tracing else None
        self.flight = (FlightRecorder(self.sim, name=str(host.addr))
                       if sanitize_on else None)
        if self.flight is not None and tracing:
            self.flight.sample = obs.bus.config.sample
        if tracing:
            obs.register_vswitch(self)
        self.sanitizer = sanitize.DatapathSanitizer(self) if sanitize_on else None
        if guard is not None:
            guard.attach(self)
        # Tap order is call order within a hook: the bus and the ring
        # log a rewrite before the sanitizer checks it, and the guard's
        # advertised edge moves before the sanitizer cross-checks it.
        window = (SimpleNamespace(on_window=window_cb)
                  if window_cb is not None else None)
        init_taps(self, HOOKS,
                  (bus_tap, self.flight, guard, self.sanitizer, window))

    def add_tap(self, tap) -> None:
        """Append ``tap`` (INT's context, last) and bind its HOOKS."""
        bind_tap(self, HOOKS, tap)

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------
    def _apply_config_floor(self, entry: FlowEntry) -> None:
        if self.config.min_wnd_bytes is not None:
            entry.vswitch_cc.min_wnd = self.config.min_wnd_bytes

    def _ensure_both_directions(self, pkt: Packet) -> None:
        """SYN handling: create entries for both flow directions (§4)."""
        for key in (pkt.flow_key(), pkt.reverse_key()):
            if key not in self.table.entries:
                for tap in self._on_decision:
                    tap("flow.state", key, INFO, {"state": "insert"})
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
        for tap in self._on_decision:
            tap("flow.state", key, WARNING, {"state": "resurrect"})
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
        for tap in self._on_decision:
            tap("flow.state", entry.key, INFO,
                {"state": "migrate", "algorithm": policy.algorithm,
                 "wnd_bytes": entry.enforced_wnd})

    def restart(self) -> None:
        """Simulate a vSwitch crash/upgrade: all flow-table state is lost.

        Subsequent packets recreate their entries mid-flow via
        :meth:`_resurrect`; the VMs' connections themselves survive (§4 —
        the flow table is soft state inferred from traffic).
        """
        for key in list(self.table.entries):
            self.table.remove(key)
        self.restarts += 1
        for tap in self._on_decision:
            tap("flow.state", None, WARNING, {"state": "restart"})

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
        key = pkt.flow_key()
        # Data with no SYN on record: the flow predates this vSwitch's
        # state (restart, migration).  Rebuild the entry mid-flow.
        entry = self.table.lookup(key) or self._resurrect(key)
        if not entry.policy.enforced:
            return pkt
        prev_nxt = entry.conntrack.snd_nxt
        entry.conntrack.on_egress_data(pkt)
        counts = self.ops.counts
        counts["seq_update"] += 1
        for tap in self._on_tracked:
            tap(entry, None, None, prev_nxt, 0, 0)
        if entry.shed:
            # Watchdog pass-through: stats above still collected, but no
            # marking, guarding or policing — the guest stack is on its own.
            return pkt
        if mark_egress_data(pkt):
            counts["ecn_mark"] += 1
            counts["checksum_recalc"] += 1
            for tap in self._on_decision:
                tap("ecn.mark", entry.key, INFO, {"direction": "egress"})
        entry.vm_ect = pkt.vm_ect
        for tap in self._on_egress_data:
            if not tap(entry, pkt):
                return None
        if self.config.police:
            counts["policing_check"] += 1
            snd_una = entry.conntrack.snd_una
            base = snd_una if snd_una is not None else pkt.seq
            if not self.policer.allow(pkt, base, entry.enforced_wnd, self.mss,
                                      wscale=entry.peer_wscale):
                for tap in self._on_decision:
                    tap("policer.drop", entry.key, WARNING,
                        {"reason": "window_overrun"})
                return None
        self._arm_inactivity(entry)
        return pkt

    def _egress_feedback(self, entry: FlowEntry, ack: Packet) -> None:
        """Receiver module: report the counters of ``entry`` (the enforced
        reverse, i.e. data, direction of ``ack``)."""
        feedback = entry.receiver_feedback
        if feedback.total_bytes:  # else nothing to report yet
            if (self.config.feedback_mode == "pack"
                    and feedback.can_piggyback(ack, self.mtu)):
                feedback.attach_pack(ack)
                counts = self.ops.counts
                counts["pack_attach"] += 1
                counts["checksum_recalc"] += 1
            else:
                fack = feedback.make_fack(ack)
                self.ops.counts["fack_create"] += 1
                self.host.wire_out(fack)
        for tap in self._on_egress_ack:
            tap(entry, ack)

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
        entry = self.table.lookup(pkt.reverse_key())  # the sender role
        for tap in self._on_ingress_ack:
            tap(self, entry, pkt)
        if pkt.wscale is not None:
            entry.peer_wscale = pkt.wscale
        if pkt.ack:
            # SYN-ACK also acknowledges our SYN.
            entry.conntrack.on_ingress_ack(pkt, self.sim.now)
        if (entry.policy.enforced and not self.config.log_only
                and scrub_ingress_data(pkt)):
            self.ops.counts["ecn_strip"] += 1
            self.ops.counts["checksum_recalc"] += 1

    def _ingress_ack(self, pkt: Packet) -> bool:
        """Sender module (DESIGN.md §1's steps); True if the ACK is consumed."""
        key = pkt.reverse_key()
        # An ACK for a flow with no entry means state was lost mid-transfer:
        # resurrect the sender-role entry; conntrack seeds from this ACK.
        entry = self.table.lookup(key) or self._resurrect(key)
        for tap in self._on_ingress_ack:
            tap(self, entry, pkt)
        if not entry.policy.enforced:
            return bool(pkt.is_fack)
        counts = self.ops.counts
        ct = entry.conntrack
        prev_una, prev_nxt = ct.snd_una, ct.snd_nxt
        # 1. (§3.1) Infer snd_una, duplicate ACKs and loss from the ACK.
        verdict = ct.on_ingress_ack(pkt, self.sim.now)
        counts["seq_update"] += 1
        # 2. (§3.2) Consume the receiver's ECN feedback; the VM never sees it.
        pack = pkt.pack
        total = marked = 0
        if pack is not None:
            total, marked = entry.feedback_reader.consume(pack)
            counts["feedback_extract"] += 1
            pkt.pack = None
        for tap in self._on_tracked:
            tap(entry, pack, prev_una, prev_nxt, total, marked)
        if entry.shed:
            # Watchdog pass-through: no CC, no rewrite, no ECN hiding —
            # the VM sees its own feedback and its stack takes over.
            # FACKs are still consumed (they are vSwitch-to-vSwitch).
            return bool(pkt.is_fack)
        # 2. (Fig. 5; §3.4's β and clamp) The vSwitch DCTCP's window.
        wnd = entry.enforced_wnd = entry.vswitch_cc.on_ack(
            snd_una=ct.snd_una or 0, snd_nxt=ct.snd_nxt or 0,
            newly_acked=verdict.newly_acked, feedback_total=total,
            feedback_marked=marked, loss=verdict.loss_detected)
        counts["cc_update"] += 1
        for tap in self._on_window:
            tap(entry.key, self.sim.now, wnd)
        for tap in self._on_ack_signals:
            tap(entry, pkt, verdict, total, marked)
        if pkt.is_fack:
            return True  # dropped after logging the data (§3.2)
        # 3. (§3.3) Enforce it as RWND under the snooped wscale — except in
        # log-only mode (Fig. 9), which computes but never rewrites.
        if rewritten := (not self.config.log_only and entry.enforcer.enforce(
                pkt, wnd, entry.peer_wscale)):
            counts["rwnd_rewrite"] += 1
            counts["checksum_recalc"] += 1
        for tap in self._on_advertised:
            tap(entry, pkt, wnd, rewritten)
        # 2. (§3.2) Hide the fabric's ECN from the VM; in log-only mode the
        # host stack stays in charge, so it keeps its own feedback.  A
        # data packet's IP codepoint is the receiver module's to scrub
        # (after its CE mark is counted), so only a pure ACK's is here.
        if self.config.hide_ecn and not self.config.log_only:
            if stripped := (scrub_ingress_ack(pkt) + (
                    pkt.payload_len == 0 and scrub_ingress_data(pkt))):
                counts["ecn_strip"] += stripped
                counts["checksum_recalc"] += stripped
        if ct.bytes_outstanding > 0:
            self._arm_inactivity(entry)
        elif entry.inactivity_timer is not None:
            entry.inactivity_timer.stop()
        return False

    def _ingress_data(self, pkt: Packet) -> None:
        """Receiver module on arriving data: count, then scrub ECN."""
        key = pkt.flow_key()
        # No SYN on record for this data: receiver-role resurrection (the
        # feedback counters restart from zero; the sender module on the
        # far side resyncs its reader to the new baseline).
        entry = self.table.lookup(key) or self._resurrect(key)
        counted = entry.policy.enforced
        if counted:
            entry.receiver_feedback.on_data(pkt)
            self.ops.counts["counters_update"] += 1
        for tap in self._on_ingress_data:
            tap(self, entry, pkt, counted)
        # The VM keeps its CE marks on an unenforced or shed flow, in
        # log-only mode (Fig. 9) and in the hide-ECN ablation, where the
        # guest reacts on its own too.
        if (counted and not entry.shed and not self.config.log_only
                and self.config.hide_ecn and scrub_ingress_data(pkt)):
            self.ops.counts["ecn_strip"] += 1
            self.ops.counts["checksum_recalc"] += 1

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
        # The guest's RTOmin floors the timer (§3.1), adapted to the
        # flow's ACK cadence: on a long (WAN) path, ACKs legitimately
        # arrive one RTT apart, and a fixed datacenter-scale timer would
        # infer a timeout every round trip.
        delay = max(MIN_RTO, 4.0 * entry.conntrack.ack_gap_estimate)
        entry.inactivity_timer.start(delay)

    def _inactivity_fired(self, entry: FlowEntry) -> None:
        if (entry.key not in self.table.entries
                or not entry.conntrack.infer_timeout()):
            return
        ct = entry.conntrack
        wnd = entry.enforced_wnd = entry.vswitch_cc.on_timeout(
            ct.snd_una or 0, ct.snd_nxt or 0)
        for tap in self._on_decision:
            tap("flow.state", entry.key, WARNING,
                {"state": "timeout", "wnd_bytes": wnd})
        for tap in self._on_window:
            tap(entry.key, self.sim.now, wnd)
        if not entry.shed:
            for tap in self._on_timeout:
                tap(entry, wnd)

    # ------------------------------------------------------------------
    # Fabricated control packets (§3.3)
    # ------------------------------------------------------------------
    def send_window_update(self, key: FlowKey) -> bool:
        """Deliver a fabricated window update for flow ``key`` to the VM.

        Useful when the enforced window changed but no ACKs are flowing
        to carry it: an ``on_timeout`` tap that calls this pushes the
        window an inferred timeout cut straight to the VM.
        """
        return self._fabricate(key, 1)

    def send_dupacks(self, key: FlowKey, count: int = 3) -> bool:
        """Deliver fabricated duplicate ACKs to trigger fast retransmit in
        the VM (for stacks whose RTO is far larger than AC/DC's): window
        updates at an unchanged ``snd_una`` are duplicate ACKs."""
        return self._fabricate(key, count)

    def _fabricate(self, key: FlowKey, count: int) -> bool:
        """Deliver ``count`` window updates advertising the enforced
        window of flow ``key`` at its ``snd_una``."""
        entry = self.table.lookup(key)
        if entry is None or entry.conntrack.snd_una is None:
            return False
        for _ in range(count):
            pkt = WindowEnforcer.make_window_update(
                (key[2], key[3], key[0], key[1]), entry.conntrack.snd_una,
                entry.enforced_wnd, entry.peer_wscale)
            for tap in self._on_advertised:
                tap(entry, pkt, entry.enforced_wnd, None)
            self.host.deliver(pkt)
        return True


class PlainOvs:
    """The unmodified-OVS baseline: forward and count, nothing else."""

    def __init__(self, host: "Host"):
        self.host = host
        self.ops = OpsCounter()

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
