"""In-band network telemetry (repro.obs.int): unit, integration, faults.

The contracts under test, per DESIGN.md §16:

* stamper/sink/echo/view protocol — per-hop aggregation, window serials,
  loss detection, restart resync, deterministic bottleneck choice;
* degradation under mangling — an invalid stack or echo is a counted,
  traced "no report", never an exception and never a packet drop;
* zero-cost-off — without an ``IntTelemetry`` the run emits no ``int.*``
  events and the packets never grow metadata;
* byte-identity — an INT-enabled cell replayed through the serial, pool
  and cache runtime paths returns byte-identical telemetry;
* service epoch reports — each epoch's fleet aggregate carries the INT
  views' new queue-depth samples and their p99.
"""

import pytest

from conftest import IntMangler, is_data, is_pure_ack
from repro.control.service import CohortSample, Service, ServiceConfig
from repro.core import AcdcVswitch
from repro.experiments.common import ACDC
from repro.experiments.runners import run_incast
from repro.faults import OptionStrip, install_faults
from repro.net.packet import Packet
from repro.obs import IntEcho, IntSink, IntTelemetry, MAX_INT_HOPS, \
    ObsContext, TelemetryView
from repro.obs.int import valid_echo, valid_hop, valid_stack
from repro.runtime import RunSpec, Runtime, canonical_json
from repro.workloads.apps import Sink

HOP = ("sw.p0", 1000, 1000.0, 5000, 0.5, 1e-4)


def _agg(hop, q_max=5000.0, residence=1e-4):
    """One echo hop aggregate: (hop, q_last, q_max, q_ewma, util,
    residence_sum, residence_max)."""
    return (hop, q_max, q_max, q_max, 0.5, residence, residence)


def _echo(serial=1, hops=(("sw.p0", 5000.0),), stacks=1):
    path = tuple(h[0] for h in hops)
    return IntEcho(serial, path, tuple(_agg(h, q) for h, q in hops), stacks)


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------
def test_valid_hop_shapes():
    assert valid_hop(HOP)
    assert not valid_hop(HOP[:3])                       # wrong arity
    assert not valid_hop(list(HOP))                     # wrong container
    assert not valid_hop(("", 1, 1.0, 1, 0.5, 1e-4))    # empty hop id
    assert not valid_hop(("sw.p0", -1, 1.0, 1, 0.5, 1e-4))   # negative
    assert not valid_hop(("sw.p0", True, 1.0, 1, 0.5, 1e-4))  # bool != num
    assert not valid_hop(("sw.p0", "1", 1.0, 1, 0.5, 1e-4))


def test_valid_stack_bounds():
    assert valid_stack([HOP])
    assert valid_stack([HOP] * MAX_INT_HOPS)
    assert not valid_stack([])
    assert not valid_stack([HOP] * (MAX_INT_HOPS + 1))
    assert not valid_stack(tuple([HOP]))
    assert not valid_stack([HOP, HOP[:2]])


def test_valid_echo_shapes():
    assert valid_echo(_echo())
    assert not valid_echo(None)
    assert not valid_echo(object())
    assert not valid_echo(IntEcho(0, ("a",), (_agg("a"),), 1))   # serial < 1
    assert not valid_echo(IntEcho(-1, ("a",), (_agg("a"),), 1))
    assert not valid_echo(IntEcho(1, (), (), 1))                 # empty path
    assert not valid_echo(IntEcho(1, ("a",), (), 1))             # mismatch
    assert not valid_echo(IntEcho(1, ("a",), (_agg("b"),), 1))   # wrong hop
    assert not valid_echo(IntEcho(1, ("a",), (_agg("a"),), 0))   # no stacks
    bad = ("a", -1.0, 1.0, 1.0, 0.5, 1e-4, 1e-4)
    assert not valid_echo(IntEcho(1, ("a",), (bad,), 1))


# ---------------------------------------------------------------------------
# Sink: window aggregation and echo serials
# ---------------------------------------------------------------------------
def test_sink_aggregates_and_resets_windows():
    sink = IntSink()
    assert sink.make_echo() is None          # empty window: nothing to say
    assert sink.absorb([("a", 100, 100.0, 1000, 0.5, 1e-4),
                        ("b", 200, 200.0, 1000, 0.5, 2e-4)])
    assert sink.absorb([("a", 300, 300.0, 2000, 0.6, 3e-4),
                        ("b", 50, 50.0, 2000, 0.6, 4e-4)])
    echo = sink.make_echo()
    assert valid_echo(echo)
    assert echo.serial == 1 and echo.stacks == 2
    assert echo.path == ("a", "b")
    a, b = echo.hops
    assert a[1] == 300 and a[2] == 300       # last and max queue
    assert b[1] == 50 and b[2] == 200
    assert a[5] == pytest.approx(4e-4)       # residence sum
    assert b[6] == pytest.approx(4e-4)       # residence max
    # The window closed: the next echo starts fresh with serial 2.
    assert sink.make_echo() is None
    assert sink.absorb([("a", 1, 1.0, 1, 0.1, 1e-5)])
    assert sink.make_echo().serial == 2


def test_sink_path_change_restarts_window():
    sink = IntSink()
    sink.absorb([("a", 100, 100.0, 1000, 0.5, 1e-4)])
    sink.absorb([("c", 700, 700.0, 1000, 0.5, 1e-4)])   # reroute mid-window
    echo = sink.make_echo()
    assert echo.path == ("c",) and echo.stacks == 1


def test_sink_counts_invalid_stacks():
    sink = IntSink()
    assert not sink.absorb([HOP[:2]])
    assert not sink.absorb("garbage")
    assert sink.invalid == 2 and sink.absorbed == 0
    assert sink.make_echo() is None


# ---------------------------------------------------------------------------
# View: serials, loss, resync, bottleneck choice
# ---------------------------------------------------------------------------
def test_view_tracks_bottleneck_and_decomposition():
    view = TelemetryView()
    echo = _echo(hops=(("a", 100.0), ("b", 900.0), ("c", 300.0)), stacks=2)
    status, changed = view.on_echo(echo)
    assert status == "ok" and not changed
    assert view.bottleneck == "b" and view.q_max_bytes == 900.0
    assert view.hop_residence_s["a"] == pytest.approx(5e-5)
    assert view.residence_s == pytest.approx(1.5e-4)
    assert view.q_samples == [900.0]


def test_view_bottleneck_tie_breaks_to_first_hop():
    view = TelemetryView()
    view.on_echo(_echo(hops=(("a", 500.0), ("b", 500.0))))
    assert view.bottleneck == "a"


def test_view_serial_gap_counts_losses_and_restart_resyncs():
    view = TelemetryView()
    view.on_echo(_echo(serial=1))
    view.on_echo(_echo(serial=4))    # 2 and 3 never arrived
    assert view.lost == 2 and view.reports == 2
    # Receiver restart: serials start over; resync, no loss counted.
    view.on_echo(_echo(serial=1))
    assert view.lost == 2 and view.last_serial == 1


def test_view_path_change_counted():
    view = TelemetryView()
    view.on_echo(_echo(serial=1, hops=(("a", 1.0),)))
    status, changed = view.on_echo(
        _echo(serial=2, hops=(("b", 1.0),)))
    assert changed and view.path_changes == 1 and view.path == ("b",)


def test_view_invalid_echo_counted_not_raised():
    view = TelemetryView()
    assert view.on_echo(object()) == ("invalid", False)
    assert view.invalid == 1 and view.reports == 0
    assert view.summary()["invalid"] == 1


# ---------------------------------------------------------------------------
# End-to-end on the packet datapath
# ---------------------------------------------------------------------------
def _small_incast(int_tel=None, obs=None, n=4):
    return run_incast(ACDC, n_senders=n, duration=0.05, mtu=1500,
                      rate_bps=1e9, obs=obs, int_tel=int_tel)


def test_incast_pipeline_stamps_echoes_and_reports():
    tel = IntTelemetry()
    obs = ObsContext()
    _small_incast(int_tel=tel, obs=obs)
    snap = tel.snapshot()
    assert snap["stamped"] > 0 and snap["overflowed"] == 0
    assert snap["stacks_invalid"] == 0 and snap["reports_invalid"] == 0
    assert snap["stacks_absorbed"] > 0
    assert snap["reports_ok"] > 0
    # Echoes consume whole windows: never more echoes than stacks.
    assert snap["echoes_attached"] <= snap["stacks_absorbed"]
    views = tel.views()
    assert views, "sender views must exist"
    for view in views.values():
        assert view.path and view.bottleneck in view.path
    reports = [r for r in obs.bus.records() if r["type"] == "int.report"]
    assert reports and all(r["status"] == "ok" for r in reports)
    # Metric registry carries both the run totals and per-hop sources.
    metrics = obs.snapshot()["metrics"]
    assert metrics["int.reports_ok"] == snap["reports_ok"]
    assert any(k.startswith("int.hop.sw.p") for k in metrics)


def test_incast_pipeline_is_deterministic():
    def one():
        tel = IntTelemetry()
        obs = ObsContext()
        _small_incast(int_tel=tel, obs=obs)
        ints = [r for r in obs.bus.records()
                if str(r["type"]).startswith("int.")]
        return canonical_json({"snap": tel.snapshot(), "events": ints})
    assert one() == one()


def test_zero_cost_off_emits_nothing():
    obs = ObsContext()
    result = _small_incast(obs=obs)
    assert not any(str(r["type"]).startswith("int.")
                   for r in obs.bus.records())
    assert not any(k.startswith("int") for k in result.telemetry["metrics"])


# ---------------------------------------------------------------------------
# Fault injection: mangled metadata degrades, never crashes
# ---------------------------------------------------------------------------
class _StubPipe:
    def record(self, fault):
        fault.events += 1


def test_int_mangler_strip_clears_metadata():
    fault = IntMangler("strip")
    pkt = Packet(src="a", dst="b", sport=1, dport=2, payload_len=100)
    pkt.int_stack = [HOP]
    pkt.int_echo = _echo()
    out = fault.process(pkt, _StubPipe(), 0, "ingress")
    assert out is pkt and out.int_stack is None and out.int_echo is None
    assert fault.events == 1 and fault.kind == "int_strip"


def test_int_mangler_corrupt_is_invalid_but_well_typed():
    fault = IntMangler("corrupt")
    pkt = Packet(src="a", dst="b", sport=1, dport=2, payload_len=100)
    pkt.int_stack = [HOP]
    echo = _echo()
    pkt.int_echo = echo
    fault.process(pkt, _StubPipe(), 0, "ingress")
    assert pkt.int_stack is not None and not valid_stack(pkt.int_stack)
    assert pkt.int_echo is not None and not valid_echo(pkt.int_echo)
    # The shared original was replaced, never mutated.
    assert pkt.int_echo is not echo and valid_echo(echo)


def test_int_mangler_ignores_bare_packets():
    fault = IntMangler("strip")
    pkt = Packet(src="a", dst="b", sport=1, dport=2, payload_len=100)
    assert fault.process(pkt, _StubPipe(), 0, "ingress") is pkt
    assert fault.events == 0


def test_int_mangler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        IntMangler("truncate")
    with pytest.raises(ValueError):
        IntMangler("strip", rate=1.5)


def test_option_strip_drops_int_metadata_too():
    fault = OptionStrip()
    pkt = Packet(src="a", dst="b", sport=1, dport=2, ack=True)
    pkt.int_stack = [HOP]
    pkt.int_echo = _echo()
    fault.process(pkt, _StubPipe(), 0, "ingress")
    assert pkt.int_stack is None and pkt.int_echo is None
    assert fault.events == 1


def _faulted_transfer(two_hosts, faults, on_receiver):
    """One AC/DC transfer with INT on and a fault chain on one side."""
    sim, topo, a, b, _sw = two_hosts
    obs = ObsContext(sim)
    vsw_a, vsw_b = AcdcVswitch(a, obs=obs), AcdcVswitch(b, obs=obs)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    tel = IntTelemetry()
    tel.attach(sim, topo, (vsw_a, vsw_b))
    install_faults(b if on_receiver else a, faults)
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(300_000)
    sim.run(until=0.5)
    assert conn.bytes_acked_total == 300_000, \
        "INT mangling must never cost payload"
    return tel, obs


def test_corrupt_stacks_degrade_to_counted_invalid(two_hosts):
    tel, obs = _faulted_transfer(
        two_hosts,
        [IntMangler("corrupt", direction="ingress", match=is_data, seed=3)],
        on_receiver=True)
    snap = tel.snapshot()
    assert snap["stacks_invalid"] > 0
    assert any(r["type"] == "int.report" and r["status"] == "invalid_stack"
               and r["sev"] == "warning" for r in obs.bus.records())


def test_corrupt_echoes_degrade_to_counted_invalid(two_hosts):
    tel, obs = _faulted_transfer(
        two_hosts,
        [IntMangler("corrupt", direction="ingress", match=is_pure_ack,
                    seed=3)],
        on_receiver=False)
    snap = tel.snapshot()
    assert snap["reports_invalid"] > 0
    assert any(r["type"] == "int.report" and r["status"] == "invalid_echo"
               for r in obs.bus.records())


def test_strip_silences_telemetry_without_breaking_flow(two_hosts):
    tel, obs = _faulted_transfer(
        two_hosts,
        [IntMangler("strip", direction="ingress")],
        on_receiver=True)
    snap = tel.snapshot()
    # Data-direction stacks never reach the sink; the echo channel may
    # still report the reverse (ACK-carrying) direction's hops.
    assert snap["stacks_absorbed"] < snap["stamped"]
    assert snap["stacks_invalid"] == 0


# ---------------------------------------------------------------------------
# Byte-identity across serial / pool / cache (DESIGN.md §10)
# ---------------------------------------------------------------------------
CELL = "repro.experiments.int_attribution:_cell"
CELL_KW = {"variant": "edge", "n_senders": 3, "msg_bytes": 16_384,
           "rounds": 2, "seed": 0}


def test_int_telemetry_byte_identical_across_serial_pool_and_cache(tmp_path):
    specs = [RunSpec(CELL, {**CELL_KW, "telemetry": True})]
    serial = Runtime(jobs=1).map(specs)
    pool_rt = Runtime(jobs=2, cache=tmp_path)
    pooled = pool_rt.map(specs)
    assert pool_rt.stats.executed == 1
    warm = Runtime(jobs=2, cache=tmp_path)
    cached = warm.map(specs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 1
    assert canonical_json(serial) == canonical_json(pooled)
    assert canonical_json(serial) == canonical_json(cached)
    trace = serial[0]["trace"]
    assert any(str(r.get("type", "")).startswith("int.") for r in trace), \
        "the identity contract must cover int.* events"
    assert serial[0]["int"]["reports_ok"] > 0


def test_attribution_experiment_flips_with_topology():
    from repro.experiments.int_attribution import run
    out = run(quick=True)
    assert out["edge"]["attribution_correct"]
    assert out["core"]["attribution_correct"]
    assert out["attribution_flips"]
    assert out["edge"]["completed"] == out["edge"]["expected_messages"]


# ---------------------------------------------------------------------------
# Service epoch reports
# ---------------------------------------------------------------------------
def _cohort(fcts=8, queues=None):
    sample = CohortSample(hosts=2, fcts=[0.001] * fcts, arrivals=fcts)
    sample.queue_depths = list(queues or [])
    return sample


def test_cohort_sample_reports_queue_aggregates():
    sample = _cohort(queues=[1.0, 2.0, 3.0])
    payload = sample.to_json()
    assert payload["queue_samples"] == 3
    assert payload["queue_p99_bytes"] == pytest.approx(sample.queue_p99)
    assert _cohort().to_json()["queue_p99_bytes"] is None


def test_service_feeds_cohorts_from_int_views():
    svc = Service(ServiceConfig(n_hosts=4, epoch_s=0.01, int_telemetry=True))
    result = svc.run(2)
    assert result["int"]["reports_ok"] > 0
    cohorts = result["epochs"][0]["cohorts"]["all"]
    assert cohorts["queue_samples"] > 0
    assert cohorts["queue_p99_bytes"] is not None
    # Epoch cursors advance: a later epoch is deltas, not the whole run.
    total = sum(e["cohorts"]["all"]["queue_samples"]
                for e in result["epochs"])
    assert total <= result["int"]["reports_ok"]


def test_service_without_int_grades_nothing():
    svc = Service(ServiceConfig(n_hosts=4, epoch_s=0.01))
    result = svc.run(1)
    assert result["int"] is None
    assert result["epochs"][0]["cohorts"]["all"]["queue_samples"] == 0
