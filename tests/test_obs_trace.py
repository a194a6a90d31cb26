"""Unit tests for the structured trace bus (repro.obs.trace)."""

import ast
from pathlib import Path

import pytest

import repro
from repro.control.service import Service, ServiceConfig
from repro.obs import ERROR, INFO, WARNING, TraceBus, TraceConfig
from repro.obs.trace import DEFAULT_SAMPLING, EVENT_SCHEMAS, format_flow

FLOW = ("10.0.0.1", 10000, "10.0.0.2", 5000)


class FakeSim:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def bus():
    return TraceBus(FakeSim())


def test_emit_records_sim_time_and_fields(bus):
    bus.sim.now = 0.125
    assert bus.emit("flow.state", flow=FLOW, component="vswitch",
                    state="insert")
    (record,) = bus.records()
    assert record == {"t": 0.125, "type": "flow.state", "sev": "info",
                      "component": "vswitch",
                      "flow": "10.0.0.1:10000>10.0.0.2:5000",
                      "state": "insert"}


def test_format_flow_shapes():
    assert format_flow(FLOW) == "10.0.0.1:10000>10.0.0.2:5000"
    assert format_flow(None) is None
    assert format_flow("already-a-string") == "already-a-string"


def test_unbound_bus_refuses_emit():
    bus = TraceBus()
    with pytest.raises(RuntimeError):
        bus.emit("flow.state", state="insert")
    bus.bind(FakeSim())
    assert bus.emit("flow.state", state="insert")


def test_unknown_type_rejected(bus):
    with pytest.raises(KeyError):
        bus.emit("not.a.type", foo=1)


def test_missing_required_field_rejected(bus):
    with pytest.raises(ValueError):
        bus.emit("rwnd.rewrite", flow=FLOW)  # needs wnd_bytes, rewritten


def test_reserved_field_shadow_rejected(bus):
    with pytest.raises(ValueError):
        bus.emit("flow.state", state="x", t=123.0)


def test_every_severity_is_recorded(bus):
    """Severity labels a record; the bus filters nothing by it."""
    for severity in (INFO, WARNING, ERROR, 15):
        assert bus.emit("flow.state", state="x", severity=severity)
    assert [r["sev"] for r in bus.records()] == ["info", "warning", "error",
                                                 "15"]
    assert bus.recorded == bus.emitted == 4
    assert "filtered" not in bus.summary()


def test_sampling_keeps_first_and_every_nth():
    bus = TraceBus(FakeSim(), TraceConfig(sample={"ecn.mark": 4}))
    kept = [bus.emit("ecn.mark", direction="egress") for _ in range(9)]
    # counter-based 1-in-4: emissions 0, 4, 8 survive
    assert kept == [True, False, False, False,
                    True, False, False, False, True]
    assert bus.sampled_out == 6 and bus.recorded == 3
    assert bus.summary()["by_type"] == {"ecn.mark": 3}


def test_sampling_is_per_type():
    bus = TraceBus(FakeSim(), TraceConfig(sample={"ecn.mark": 2}))
    bus.emit("flow.state", state="a")
    bus.emit("ecn.mark", direction="egress")
    bus.emit("ecn.mark", direction="egress")  # sampled out
    bus.emit("flow.state", state="b")
    assert [r["type"] for r in bus.records()] == \
        ["flow.state", "ecn.mark", "flow.state"]


def test_max_events_bound_counts_drops():
    bus = TraceBus(FakeSim(), TraceConfig(max_events=2, sample={}))
    for _ in range(5):
        bus.emit("flow.state", state="x")
    assert len(bus) == 2 and bus.dropped == 3
    assert bus.summary()["dropped"] == 3


def test_by_type_and_for_flow(bus):
    other = ("10.0.0.9", 1, "10.0.0.8", 2)
    bus.emit("flow.state", flow=FLOW, state="insert")
    bus.emit("rwnd.rewrite", flow=other, wnd_bytes=100, rewritten=True)
    bus.emit("rwnd.rewrite", flow=FLOW, wnd_bytes=200, rewritten=False)
    assert sorted(bus.by_type()) == ["flow.state", "rwnd.rewrite"]
    mine = bus.for_flow(FLOW)
    assert [e.type for e in mine] == ["flow.state", "rwnd.rewrite"]
    # Accepts the pre-rendered string form too.
    assert bus.for_flow("10.0.0.1:10000>10.0.0.2:5000") == mine


def test_summary_totals_are_consistent():
    bus = TraceBus(FakeSim(), TraceConfig(sample={"ecn.mark": 2},
                                          max_events=3))
    for _ in range(4):
        bus.emit("ecn.mark", direction="egress", severity=WARNING)
    for _ in range(3):
        bus.emit("flow.state", state="x", severity=INFO)
    s = bus.summary()
    assert s["emitted"] == bus.emitted == 7
    assert (s["recorded"], s["sampled_out"], s["dropped"]) == (3, 2, 2)
    assert s["emitted"] == (s["recorded"] + s["sampled_out"]
                            + s["dropped"])


def test_every_schema_type_is_emittable():
    bus = TraceBus(FakeSim(), TraceConfig(sample={}))
    filler = {"state": "x", "wnd_bytes": 1, "rewritten": False,
              "direction": "egress", "reason": "r", "kind": "k",
              "cause": "c", "invariant": "i",
              "path": "/tmp/x", "op": "set_policy", "status": "applied",
              "epoch": 1, "bytes": 0, "replayed": 0}
    for type_, required in EVENT_SCHEMAS.items():
        assert bus.emit(type_, **{f: filler[f] for f in required})
    assert len(bus) == len(EVENT_SCHEMAS)


# ---------------------------------------------------------------------------
# The vocabulary: every name has a producer, every sampled name exists
# ---------------------------------------------------------------------------
SRC = Path(repro.__file__).resolve().parent


def string_literals(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_schema_type_has_a_producer_outside_the_schema():
    literals = set()
    for path in SRC.rglob("*.py"):
        if path != SRC / "obs" / "trace.py":
            literals |= string_literals(path)
    assert sorted(set(EVENT_SCHEMAS) - literals) == []


def test_every_sampled_type_is_a_schema_type():
    """Sampling tolerates an unknown type, so a stale name would linger
    unnoticed: the default rates and the service's must name types."""
    service = Service(ServiceConfig(n_hosts=2, peers=1))
    for sample in (DEFAULT_SAMPLING, service.obs.bus.config.sample):
        assert sample and set(sample) <= set(EVENT_SCHEMAS), sample
