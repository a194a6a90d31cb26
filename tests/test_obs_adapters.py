"""Tests for the ledgers' trace-bus mirroring (repro.metrics.collectors)."""

from repro.metrics import EventLog, FaultRecorder
from repro.metrics.collectors import GUARD_KIND_TO_TYPE
from repro.obs import TraceBus

FLOW = ("s1", 10000, "r1", 5000)


class FakeSim:
    def __init__(self):
        self.now = 0.0


def test_unbound_event_log_adapter_is_a_pure_ledger():
    log = EventLog()
    log.record(0.1, "guard_escalate", flow=FLOW, level=1)
    assert isinstance(log, EventLog)
    assert log.kinds() == {"guard_escalate": 1}
    assert log.signature() == [(0.1, "guard_escalate", FLOW,
                                (("level", 1),))]


def test_event_log_adapter_mirrors_guard_kinds():
    bus = TraceBus(FakeSim())
    log = EventLog(bus)
    for kind in GUARD_KIND_TO_TYPE:
        log.record(0.0, kind, flow=FLOW)
    assert sorted(bus.by_type()) == sorted(GUARD_KIND_TO_TYPE.values())
    # Ledger behaviour is untouched by the mirroring.
    assert sum(log.kinds().values()) == len(GUARD_KIND_TO_TYPE)
    # Enforcement actions surface as warnings, bookkeeping as info.
    sev = {e.type: e.severity for e in bus.events}
    assert sev["guard.escalate"] > sev["guard.deescalate"]


def test_event_log_adapter_unmapped_kind_rides_catch_all():
    bus = TraceBus(FakeSim())
    log = EventLog(bus)
    log.record(0.0, "brand_new_kind", flow=FLOW, extra=7)
    (event,) = bus.events
    assert event.type == "guard.event"
    assert event.fields == {"kind": "brand_new_kind", "extra": 7}
    # The ledger keeps the raw kind.
    assert log.kinds() == {"brand_new_kind": 1}


def test_event_log_adapter_bind_bus_is_late_bindable():
    log = EventLog()
    log.record(0.0, "guard_shed", flow=FLOW)
    bus = TraceBus(FakeSim())
    log.bind_bus(bus)
    log.record(0.1, "guard_unshed", flow=FLOW)
    assert bus.by_type() == {"guard.unshed": 1}  # only post-bind records
    assert len(log) == 2


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
    assert rec.total() == 2 and rec.snapshot() == {"reorder": 2}


def test_fault_recorder_adapter_merge_keeps_ledger_semantics():
    a, b = FaultRecorder(), FaultRecorder()
    a.record("loss", 1)
    b.record("loss", 2)
    a.merge(b)
    assert a.snapshot() == {"loss": 3}
