"""End-to-end tests for the telemetry layer on real datapaths.

Covers the acceptance path for the observability issue: a traced Fig. 9
run whose ``rwnd.rewrite`` series reproduces the vSwitch-vs-host window
overlay (and renders through ``python -m repro.obs timeline``), the
flight-recorder dump attached to an injected invariant violation, and
byte-identical telemetry across identical runs.
"""

import json
from types import SimpleNamespace

import pytest

from conftest import sanitizing
from repro.analysis import sanitize
from repro.analysis.sanitize import InvariantViolation
from repro.core import AcdcConfig, AcdcVswitch, FlowPolicy, PolicyEngine
from repro.experiments import fig09_window_tracking as fig09
from repro.guard import Guard
from repro.net.packet import mss_for_mtu
from repro.obs import (EVENT_SCHEMAS, INFO, WARNING, ObsContext, TraceConfig,
                       read_jsonl)
from repro.obs.__main__ import main as obs_main
from repro.obs.recorder import DEFAULT_CAPACITY
from repro.workloads.apps import Sink


# ---------------------------------------------------------------------------
# Traced Fig. 9: the rwnd.rewrite series IS the window overlay
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_fig09(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "fig09.jsonl"
    out = fig09.run(duration=0.05, trace_path=str(path))
    return out, str(path)


def test_traced_run_reports_trace_metadata(traced_fig09):
    out, _ = traced_fig09
    assert out["trace_events"] > 0
    assert out["trace_flow"]
    summary = out["telemetry"]["trace"]
    assert summary["recorded"] > 0
    assert summary["by_type"]["rwnd.rewrite"] > 0
    assert summary["by_type"]["flow.state"] > 0
    assert summary["emitted"] == (summary["recorded"]
                                  + summary["sampled_out"]
                                  + summary["dropped"])
    # Engine and switch metrics rode along in the same snapshot.
    metrics = out["telemetry"]["metrics"]
    assert metrics["engine.events_processed"] > 0
    assert any(k.endswith("buffer_peak_used") for k in metrics)


def test_rwnd_rewrite_series_reproduces_the_overlay(traced_fig09):
    out, path = traced_fig09
    mss = mss_for_mtu(1500)
    records = [r for r in read_jsonl(path)
               if r["type"] == "rwnd.rewrite" and r["flow"] == out["trace_flow"]]
    assert records, "traced flow has no rwnd.rewrite events"
    # Log-only mode: windows computed on every ACK, never applied.
    assert all(r["rewritten"] is False for r in records)
    # Every WindowLogger sample of the vSwitch series appears in the
    # trace — the trace alone reconstructs Fig. 9's vSwitch curve.
    traced_wnds = {r["wnd_bytes"] for r in records}
    series_wnds = {int(round(w * mss)) for _, w in out["rwnd_series_mss"]}
    assert series_wnds <= traced_wnds
    # The guest's half of the overlay is on the bus too.
    guest = [r for r in read_jsonl(path)
             if r["type"] == "flow.state" and r.get("state") == "cwnd"
             and r["flow"] == out["trace_flow"]]
    assert guest and all(r["component"] == "guest" for r in guest)


def test_timeline_renders_the_traced_flow(traced_fig09, capsys):
    out, path = traced_fig09
    assert obs_main(["timeline", path, "--flow", out["trace_flow"],
                     "--limit", "40"]) == 0
    rendered = capsys.readouterr().out
    assert "rwnd.rewrite" in rendered and "wnd_bytes=" in rendered
    assert obs_main(["summary", path]) == 0


def test_traced_runs_are_deterministic(tmp_path):
    a = fig09.run(duration=0.02, trace=True)
    b = fig09.run(duration=0.02, trace=True)
    dump = lambda r: json.dumps(r["telemetry"], sort_keys=True, default=str)
    assert dump(a) == dump(b)
    assert a["trace_events"] == b["trace_events"]


# ---------------------------------------------------------------------------
# Flight recorder: violation dumps carry the offending decision
# ---------------------------------------------------------------------------
def test_tracing_off_vswitch_has_no_obs_hot_path(two_hosts):
    sim, topo, a, b, sw = two_hosts
    sanitize.enable(False)
    try:
        vsw = AcdcVswitch(a)
    finally:
        sanitize.enable(None)
    assert vsw.taps == ()
    assert vsw.trace is None and vsw.flight is None


def test_lying_rewrite_attaches_flight_dump(two_hosts, monkeypatch, tmp_path):
    from repro.core.enforcement import WindowEnforcer

    def lying_enforce(self, pkt, window_bytes, wscale):
        pkt.rwnd_field = 1
        return True

    monkeypatch.setattr(WindowEnforcer, "enforce", lying_enforce)
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    sim, topo, a, b, sw = two_hosts
    with sanitizing(True):
        for host in (a, b):
            host.attach_vswitch(AcdcVswitch(host, obs=ObsContext(sim)))
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    with pytest.raises(InvariantViolation) as exc:
        sim.run(until=0.2)
    assert exc.value.invariant == "rwnd-roundtrip"
    # The dump path is attached, inside REPRO_OBS_DIR, and readable.
    assert exc.value.flight_dump is not None
    assert exc.value.flight_dump.startswith(str(tmp_path))
    assert "flight recorder dump" in str(exc.value)
    dump = read_jsonl(exc.value.flight_dump)
    offending = [r for r in dump if r["type"] == "rwnd.rewrite"]
    assert offending, "dump must contain the offending rewrite decision"
    # The lie itself, on record: a one-unit field under the peer's scale.
    wscale = a.vswitch.table.entries[conn.key()].peer_wscale
    assert offending[-1]["visible_bytes"] == 1 << wscale


def test_the_ring_is_the_bus_tail_and_a_guard_transition_is_offered_once(
        two_hosts):
    """One record per decision: the flight ring holds exactly the records
    the bus got from the same vSwitch (bar ``component``), and each
    guard transition reaches the bus once."""
    sim, topo, a, b, sw = two_hosts
    # Unsampled, so every ECN mark the ring keeps is on the bus too.
    obs = ObsContext(sim, TraceConfig(sample={}))
    guard = Guard()
    clamp = PolicyEngine(default=FlowPolicy(max_rwnd=4 * a.mss))
    with sanitizing(True):
        vsw_a = AcdcVswitch(a, policy=clamp, guard=guard, obs=obs,
                            config=AcdcConfig(police=True))
    a.attach_vswitch(vsw_a)
    with sanitizing(False):
        b.attach_vswitch(AcdcVswitch(b))
    Sink(b, 7000)
    a.connect(b.addr, 7000, ignore_rwnd=True).send_forever()
    sim.run(until=0.2)

    ring = vsw_a.flight
    records = obs.bus.records()
    decisions = [r for r in records if r["component"] == "vswitch"]
    assert ring.noted == len(decisions)  # one record per decision
    assert len(ring) == DEFAULT_CAPACITY < len(decisions)  # a real tail

    def shape(record):
        return {k: v for k, v in record.items() if k != "component"}

    assert ([shape(r) for r in ring.records()]
            == [shape(r) for r in decisions[-len(ring):]])
    transitions = [(r["t"], r["type"]) for r in records
                   if r["type"].startswith("guard.")]
    assert guard.police_drops > 0
    assert transitions == [(t, type_) for t, type_, _, _ in guard.events]


def test_each_guard_type_reaches_the_bus_once(two_hosts):
    """Every ``guard.*`` type of the schema goes from the guard through
    its vSwitch's bus tap once: enforcement actions and ladder climbs at
    WARNING, bookkeeping at INFO."""
    sim, topo, a, b, sw = two_hosts
    obs = ObsContext(sim)
    guard = Guard()
    AcdcVswitch(a, obs=obs, guard=guard)
    flow = ("s1", 10000, "r1", 5000)
    types = [t for t in EVENT_SCHEMAS if t.startswith("guard.")]
    for type_ in types:
        guard._notify(type_, SimpleNamespace(key=flow), level=1)
    assert obs.bus.by_type() == {t: 1 for t in sorted(types)}
    assert guard.events == [(0.0, t, flow, (("level", 1),)) for t in types]
    info = {"guard.deescalate", "guard.unshed"}
    assert {e.type: e.severity for e in obs.bus.events} == {
        t: INFO if t in info else WARNING for t in types}


def test_sanitize_only_vswitch_still_dumps(two_hosts, monkeypatch, tmp_path):
    """The flight recorder arms for sanitize-only runs too (no tracing)."""
    from repro.core.enforcement import WindowEnforcer

    monkeypatch.setattr(WindowEnforcer, "enforce",
                        lambda self, pkt, wb, ws: (
                            setattr(pkt, "rwnd_field", 1) or True))
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    sim, topo, a, b, sw = two_hosts
    with sanitizing(True):
        for host in (a, b):
            host.attach_vswitch(AcdcVswitch(host))
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    with pytest.raises(InvariantViolation) as exc:
        sim.run(until=0.2)
    assert exc.value.flight_dump is not None
    assert read_jsonl(exc.value.flight_dump)
