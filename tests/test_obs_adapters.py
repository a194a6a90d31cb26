"""Tests for how the ledgers reach the trace bus: ``FaultRecorder``
mirrors itself, and a guard transition goes from the guard through its
vSwitch's taps (repro.metrics.collectors, repro.guard.guard)."""

from types import SimpleNamespace

from repro.core import AcdcVswitch
from repro.guard import Guard
from repro.guard.guard import GUARD_KIND_TO_TYPE
from repro.metrics import EventLog, FaultRecorder
from repro.obs import ObsContext, TraceBus

FLOW = ("s1", 10000, "r1", 5000)


class FakeSim:
    def __init__(self):
        self.now = 0.0


def traced_guard(two_hosts):
    """A guard on a traced vSwitch, and the run's bus."""
    sim, topo, a, b, sw = two_hosts
    obs = ObsContext(sim)
    guard = Guard()
    AcdcVswitch(a, obs=obs, guard=guard)
    return guard, obs.bus


def test_unbound_event_log_adapter_is_a_pure_ledger():
    log = EventLog()
    log.record(0.1, "guard_escalate", flow=FLOW, level=1)
    assert isinstance(log, EventLog)
    assert log.kinds() == {"guard_escalate": 1}
    assert log.signature() == [(0.1, "guard_escalate", FLOW,
                                (("level", 1),))]


def test_event_log_adapter_mirrors_guard_kinds(two_hosts):
    """Each guard kind reaches the bus as its own ``guard.*`` type, from
    the guard through the vSwitch's bus tap."""
    guard, bus = traced_guard(two_hosts)
    log = guard.events
    for kind in GUARD_KIND_TO_TYPE:
        guard._notify(kind, SimpleNamespace(key=FLOW))
    assert sorted(bus.by_type()) == sorted(GUARD_KIND_TO_TYPE.values())
    # Ledger behaviour is untouched by the mirroring.
    assert sum(log.kinds().values()) == len(GUARD_KIND_TO_TYPE)
    # Enforcement actions surface as warnings, bookkeeping as info.
    sev = {e.type: e.severity for e in bus.events}
    assert sev["guard.escalate"] > sev["guard.deescalate"]


def test_event_log_adapter_unmapped_kind_rides_catch_all(two_hosts):
    guard, bus = traced_guard(two_hosts)
    log = guard.events
    guard._notify("brand_new_kind", SimpleNamespace(key=FLOW), extra=7)
    (event,) = bus.events
    assert event.type == "guard.event"
    assert event.fields == {"kind": "brand_new_kind", "extra": 7}
    # The ledger keeps the raw kind.
    assert log.kinds() == {"brand_new_kind": 1}


def test_fault_recorder_adapter_mirrors_fault_inject():
    bus = TraceBus(FakeSim())
    rec = FaultRecorder(bus)
    rec.record("loss", 3)
    rec.record("corrupt")
    assert isinstance(rec, FaultRecorder)
    assert rec.snapshot() == {"loss": 3, "corrupt": 1}
    assert bus.by_type() == {"fault.inject": 2}
    assert [e.fields["cause"] for e in bus.events] == ["loss", "corrupt"]


def test_fault_recorder_adapter_unbound_is_a_pure_ledger():
    rec = FaultRecorder()
    rec.record("reorder", 2)
    assert rec.snapshot() == {"reorder": 2}
