"""Flow table for the AC/DC datapath (§4).

The prototype adds a hash table to OVS keyed on the 5-tuple; entries are
created by SYN packets and removed by FINs plus a coarse-grained garbage
collector.  Lookups vastly outnumber insertions, which in the kernel
motivates RCU hash tables and per-entry spinlocks — in a single-threaded
simulation those are design notes, but the entry lifecycle, the lookup
accounting (for the CPU model) and the GC behaviour are implemented
faithfully.

One :class:`FlowEntry` exists per flow *direction* (the paper keeps two
entries per connection).  An entry at a given host is in the **sender
role** if the direction's source is local (it runs conntrack + the
vSwitch congestion control + enforcement), and in the **receiver role**
otherwise (it runs the feedback counters).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..net.packet import FlowKey
from ..sim.engine import Simulator
from ..sim.timers import PeriodicTimer, Timer
from .conntrack import ConnTrack
from .enforcement import WindowEnforcer
from .feedback import FeedbackReader, ReceiverFeedback
from .policy import FlowPolicy
from .vswitch_cc import make_vswitch_cc

#: The C prototype's per-entry footprint (§4); kept as a constant so the
#: scalability example can report faithful memory numbers.
FLOW_ENTRY_BYTES = 320

#: Period of the coarse-grained garbage collector (§4), seconds.
GC_INTERVAL_S = 1.0
#: An entry idle this long is reclaimed even without a FIN, seconds.
IDLE_TIMEOUT_S = 30.0


class FlowEntry:
    """Per-direction connection state (§3.1–§3.3 combined)."""

    __slots__ = (
        "key", "policy", "created_at", "last_active",
        "conntrack", "vswitch_cc", "enforcer", "feedback_reader",
        "receiver_feedback", "peer_wscale", "vm_ect", "fin_seen",
        "inactivity_timer", "enforced_wnd", "shed", "guard_state",
        "int_sink", "int_view",
    )

    def __init__(self, key: FlowKey, policy: FlowPolicy, now: float, mss: int):
        self.key = key
        self.policy = policy
        self.created_at = now
        self.last_active = now
        # Sender-role state (populated lazily; harmless if unused).
        self.conntrack = ConnTrack()
        algorithm = policy.algorithm if policy.enforced else "dctcp"
        self.vswitch_cc = make_vswitch_cc(
            algorithm, mss=mss, beta=policy.beta,
            max_wnd_bytes=policy.max_rwnd,
        )
        self.enforcer = WindowEnforcer()
        self.feedback_reader = FeedbackReader()
        self.peer_wscale = 0
        self.enforced_wnd = self.vswitch_cc.window_bytes
        # Receiver-role state.
        self.receiver_feedback = ReceiverFeedback()
        # Lifecycle.
        self.vm_ect = False
        self.fin_seen = False
        self.inactivity_timer: Optional[Timer] = None
        # Guard state (repro.guard): watchdog pass-through flag and the
        # per-flow conformance record, attached lazily by the Guard.
        self.shed = False
        self.guard_state = None
        # In-band telemetry (repro.obs.int): receiver-role sink and
        # sender-role view, created lazily when INT is on for the run.
        self.int_sink = None
        self.int_view = None

    def touch(self, now: float) -> None:
        self.last_active = now


class FlowTable:
    """5-tuple-hashed flow state with SYN/FIN lifecycle and a GC."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.entries: Dict[FlowKey, FlowEntry] = {}
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.removes = 0
        self._gc = PeriodicTimer(sim, GC_INTERVAL_S, self.collect_garbage)

    # ------------------------------------------------------------------
    def start_gc(self) -> None:
        self._gc.start()

    def stop_gc(self) -> None:
        self._gc.stop()

    # ------------------------------------------------------------------
    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        self.lookups += 1
        entry = self.entries.get(key)
        if entry is not None:
            self.hits += 1
            entry.last_active = self.sim.now  # FlowEntry.touch, in place
        return entry

    def ensure(self, key: FlowKey, policy: FlowPolicy, mss: int) -> FlowEntry:
        """Lookup-or-insert (SYN handling)."""
        entry = self.lookup(key)
        if entry is None:
            entry = FlowEntry(key, policy, self.sim.now, mss)
            self.entries[key] = entry
            self.inserts += 1
        return entry

    def remove(self, key: FlowKey) -> None:
        entry = self.entries.pop(key, None)
        if entry is not None:
            if entry.inactivity_timer is not None:
                entry.inactivity_timer.stop()
            self.removes += 1

    def mark_fin(self, key: FlowKey) -> None:
        """FIN observed: the GC may reclaim the entry once it goes idle."""
        entry = self.entries.get(key)
        if entry is not None:
            entry.fin_seen = True

    # ------------------------------------------------------------------
    def collect_garbage(self) -> None:
        """Reclaim finished or long-idle entries (coarse-grained GC, §4)."""
        now = self.sim.now
        stale = [
            key for key, entry in self.entries.items()
            if (entry.fin_seen and now - entry.last_active > 1.0)
            or (now - entry.last_active > IDLE_TIMEOUT_S)
        ]
        for key in stale:
            self.remove(key)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self.entries.values())

    def memory_bytes(self) -> int:
        """Footprint at the C prototype's 320 B/entry (§4)."""
        return len(self.entries) * FLOW_ENTRY_BYTES
