"""Runtime invariant sanitizer tests (repro.analysis.sanitize).

Every probe is exercised twice: with a deliberately broken input it must
raise :class:`InvariantViolation` (carrying flow/time/seed diagnostics),
and on real, healthy datapath traffic it must stay silent.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import (
    DatapathSanitizer,
    InvariantViolation,
    PortAccounting,
)
from repro.core import AcdcVswitch
from repro.experiments import common
from repro.experiments.runners import dumbbell_scenario
from repro.net.buffer import SharedBuffer
from repro.net.packet import PackOption, Packet
from repro.obs import FlightRecorder
from repro.sim.engine import SimulationError, Simulator
from repro.workloads.apps import Sink

KEY = ("10.0.0.1", 40000, "10.0.0.2", 7000)


@pytest.fixture(autouse=True)
def restore_sanitize_globals():
    """Every test leaves enablement and the run-seed as it found them."""
    yield
    sanitize.enable(None)
    sanitize.set_run_seed(None)


@pytest.fixture
def san():
    """A sanitizer on a minimal vswitch-shaped stand-in."""
    vswitch = SimpleNamespace(sim=Simulator(),
                              host=SimpleNamespace(addr="10.0.0.1"))
    return DatapathSanitizer(vswitch)


def small_testbed():
    """A two-pair AC/DC dumbbell, built (not run)."""
    return common.Testbed(dumbbell_scenario(common.ACDC, pairs=2,
                                            duration=0.01, mtu=1500,
                                            rate_bps=1e9))


def armed(testbed):
    """What the one sanitizer switch armed on ``testbed``, part by part."""
    vswitches = testbed.vswitches.values()
    ports = [port for sw in testbed.topology.switches.values()
             for port in sw.ports.values()]
    return {
        "probes": [isinstance(v.sanitizer, DatapathSanitizer)
                   for v in vswitches],
        "rings": [isinstance(v.flight, FlightRecorder) for v in vswitches],
        "port_accounting": [any(isinstance(t, PortAccounting)
                                for t in port.taps) for port in ports],
        "strict_engine": testbed.sim._strict,
    }


# ---------------------------------------------------------------------------
# Enablement plumbing
# ---------------------------------------------------------------------------
class TestEnablement:
    def test_env_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.is_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_env_truthy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize.is_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_env_falsy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitize.is_enabled()

    def test_enable_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.enable(False)
        assert not sanitize.is_enabled()
        sanitize.enable(None)  # back to the env
        assert sanitize.is_enabled()

    def test_datapath_off_by_default(self, two_hosts, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _, _, a, _, _ = two_hosts
        assert AcdcVswitch(a).sanitizer is None

    def test_datapath_config_forces_on(self, two_hosts, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _, _, a, _, _ = two_hosts
        sanitize.enable(True)
        vsw = AcdcVswitch(a)
        assert vsw.sanitizer is not None

    def test_datapath_config_forces_off(self, two_hosts, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _, _, a, _, _ = two_hosts
        sanitize.enable(False)
        vsw = AcdcVswitch(a)
        assert vsw.sanitizer is None

    def test_enable_arms_every_part_of_a_testbed(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitize.enable(True)
        assert armed(small_testbed()) == {
            "probes": [True] * 4, "rings": [True] * 4,
            "port_accounting": [True] * 6, "strict_engine": True}

    def test_disable_arms_no_part_of_a_testbed_under_the_env(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.enable(False)
        assert armed(small_testbed()) == {
            "probes": [False] * 4, "rings": [False] * 4,
            "port_accounting": [False] * 6, "strict_engine": False}

    def test_violation_carries_run_seed(self, san):
        sanitize.set_run_seed(42)
        with pytest.raises(InvariantViolation) as exc:
            san.check_serial_progress(KEY, 100, 50, None, None)
        assert exc.value.seed == 42
        assert "seed=42" in str(exc.value)
        assert exc.value.flow == KEY

    def test_violation_survives_pickling(self):
        exc = InvariantViolation("conservation", "bytes leaked", flow=KEY,
                                 sim_time=0.5, host="h1", seed=3,
                                 flight_dump="flight.jsonl")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is InvariantViolation
        assert vars(back) == vars(exc) and str(back) == str(exc)


# ---------------------------------------------------------------------------
# Serial monotonicity (§3.1)
# ---------------------------------------------------------------------------
class TestSerialProgress:
    def test_una_retreat_fires(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.check_serial_progress(KEY, 1000, 999, None, None)
        assert exc.value.invariant == "snd-una-monotonic"

    def test_nxt_retreat_fires(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.check_serial_progress(KEY, None, None, 5000, 4000)
        assert exc.value.invariant == "snd-nxt-monotonic"

    def test_progress_across_wrap_is_clean(self, san):
        # 2^32 - 10 -> 5 is forward motion in serial order.
        san.check_serial_progress(KEY, (1 << 32) - 10, 5, None, None)

    def test_retreat_across_wrap_fires(self, san):
        with pytest.raises(InvariantViolation):
            san.check_serial_progress(KEY, 5, (1 << 32) - 10, None, None)

    def test_unknown_values_are_skipped(self, san):
        san.check_serial_progress(KEY, None, 100, 100, None)


# ---------------------------------------------------------------------------
# RWND encode -> decode fidelity (§3.3)
# ---------------------------------------------------------------------------
def ack(rwnd_field):
    return Packet(src=KEY[2], sport=KEY[3], dst=KEY[0], dport=KEY[1],
                  ack=True, ack_seq=1000, rwnd_field=rwnd_field)


class TestRewrite:
    @pytest.mark.parametrize("wscale", [0, 2, 7, 14])
    def test_faithful_rewrite_is_clean(self, san, wscale):
        for wnd in (0, 1, 1460, 65535, 70000, 1 << 22):
            pkt = ack(0xFFFF)
            pkt.set_advertised_window(wnd, wscale)
            san.check_rewrite(KEY, pkt, wnd, wscale, rewritten=True)

    def test_wrong_field_fires(self, san):
        pkt = ack(1)  # decodes to 4B under wscale 2, reference says 365
        with pytest.raises(InvariantViolation) as exc:
            san.check_rewrite(KEY, pkt, 1460, 2, rewritten=True)
        assert exc.value.invariant == "rwnd-roundtrip"

    def test_downward_lie_fires(self, san):
        # Field encodes less than requested although it was representable.
        pkt = ack(10)  # 10 << 0 = 10B, requested 1460B
        with pytest.raises(InvariantViolation):
            san.check_rewrite(KEY, pkt, 1460, 0, rewritten=True)

    def test_skip_with_loose_advert_fires(self, san):
        # Enforcer claims it left the ACK alone, but the original window
        # (65535B) is far looser than the enforced 1460B.
        pkt = ack(0xFFFF)
        with pytest.raises(InvariantViolation) as exc:
            san.check_rewrite(KEY, pkt, 1460, 0, rewritten=False)
        assert exc.value.invariant == "rwnd-enforce-skipped"

    def test_skip_with_tight_advert_is_clean(self, san):
        # Original advert (1000B) is already tighter than enforced 5000B.
        san.check_rewrite(KEY, ack(1000), 5000, 0, rewritten=False)

    def test_clamped_ceiling_is_clean(self, san):
        # 1 MB under wscale 0 clamps to 0xFFFF: legal (no upward lie fits).
        pkt = ack(0xFFFF)
        san.check_rewrite(KEY, pkt, 1 << 20, 0, rewritten=True)


class TestWindowValue:
    def test_negative_window_fires(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.check_window_value(KEY, -1, SimpleNamespace(max_wnd=None))
        assert exc.value.invariant == "cc-window-band"

    def test_above_ceiling_fires(self, san):
        with pytest.raises(InvariantViolation):
            san.check_window_value(KEY, 2_000_001,
                                   SimpleNamespace(max_wnd=2_000_000))

    def test_within_band_is_clean(self, san):
        san.check_window_value(KEY, 10_000, SimpleNamespace(max_wnd=2_000_000))


# ---------------------------------------------------------------------------
# Advertised-edge serial maximum
# ---------------------------------------------------------------------------
class TestAdvertisedEdge:
    def test_edge_is_serial_high_water(self, san):
        san.note_advertised_edge(KEY, 1000, 5000)   # edge 6000
        san.note_advertised_edge(KEY, 2000, 1000)   # edge 3000: keeps 6000
        assert san._edges[KEY] == 6000

    def test_edge_advances_across_wrap(self, san):
        san.note_advertised_edge(KEY, (1 << 32) - 100, 50)
        san.note_advertised_edge(KEY, (1 << 32) - 100, 200)
        assert san._edges[KEY] == 100  # wrapped past zero

    def test_guard_divergence_fires(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.note_advertised_edge(KEY, 1000, 5000, guard_edge=5999)
        assert exc.value.invariant == "advertised-edge"

    def test_guard_agreement_is_clean(self, san):
        san.note_advertised_edge(KEY, 1000, 5000, guard_edge=6000)

    def test_negative_window_fires(self, san):
        with pytest.raises(InvariantViolation):
            san.note_advertised_edge(KEY, 1000, -1)

    def test_forget_flow_resets_high_water(self, san):
        san.note_advertised_edge(KEY, 1000, 5000)
        san.forget_flow(KEY)
        # After a resurrection the edge restarts lower without tripping.
        san.note_advertised_edge(KEY, 10, 100)
        assert san._edges[KEY] == 110


# ---------------------------------------------------------------------------
# Feedback-channel consistency (§3.2)
# ---------------------------------------------------------------------------
class TestFeedback:
    def test_marked_above_total_fires(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.check_feedback_counters(KEY, 100, 200, "receiver counters")
        assert exc.value.invariant == "feedback-counters"

    def test_negative_counters_fire(self, san):
        with pytest.raises(InvariantViolation):
            san.check_feedback_counters(KEY, -1, 0, "receiver counters")

    def test_consume_above_receiver_high_water_fires(self, san):
        san.register_feedback_report(KEY, 1000, 100)
        with pytest.raises(InvariantViolation) as exc:
            san.check_feedback_consume(
                KEY, PackOption(total_bytes=2000, marked_bytes=100))
        assert exc.value.invariant == "feedback-conservation"

    def test_consume_within_high_water_is_clean(self, san):
        san.register_feedback_report(KEY, 1000, 100)
        san.check_feedback_consume(
            KEY, PackOption(total_bytes=1000, marked_bytes=100))

    def test_receiver_restart_reset_is_tolerated(self, san):
        # Counters legitimately regress after a receiver-vSwitch restart;
        # the registry keeps the high-water, lower reports are fine.
        san.register_feedback_report(KEY, 5000, 500)
        san.register_feedback_report(KEY, 100, 10)
        san.check_feedback_consume(
            KEY, PackOption(total_bytes=100, marked_bytes=10))

    def test_cross_vswitch_registry_is_shared_via_sim(self, san):
        other = DatapathSanitizer(SimpleNamespace(
            sim=san.sim, host=SimpleNamespace(addr="10.0.0.2")))
        other.register_feedback_report(KEY, 700, 70)
        san.check_feedback_consume(
            KEY, PackOption(total_bytes=700, marked_bytes=70))
        with pytest.raises(InvariantViolation):
            san.check_feedback_consume(
                KEY, PackOption(total_bytes=701, marked_bytes=70))

    def test_bad_deltas_fire(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.check_feedback_deltas(KEY, 100, 200)
        assert exc.value.invariant == "feedback-deltas"
        with pytest.raises(InvariantViolation):
            san.check_feedback_deltas(KEY, -1, 0)

    def test_good_deltas_are_clean(self, san):
        san.check_feedback_deltas(KEY, 100, 40)
        san.check_feedback_deltas(KEY, 0, 0)


# ---------------------------------------------------------------------------
# Switch byte conservation
# ---------------------------------------------------------------------------
class TestPortAccounting:
    def test_balanced_books_are_clean(self):
        sim = Simulator()
        shared = SharedBuffer(10_000)
        shared.register_queue(1)
        acct = PortAccounting("sw:1", 1, shared, sim)
        acct.on_offer(1500)
        shared.try_admit(1, 1500)
        acct.check()
        shared.release(1, 1500)
        acct.on_depart(None, 0.0, 1500, 0)
        acct.check()

    def test_leaked_bytes_fire(self):
        sim = Simulator()
        shared = SharedBuffer(10_000)
        shared.register_queue(1)
        acct = PortAccounting("sw:1", 1, shared, sim)
        acct.on_offer(1500)  # offered but never admitted nor dropped
        with pytest.raises(InvariantViolation) as exc:
            acct.check()
        assert exc.value.invariant == "switch-byte-conservation"

    def test_pool_mismatch_fires(self):
        sim = Simulator()
        shared = SharedBuffer(10_000)
        shared.register_queue(1)
        acct = PortAccounting("sw:1", 1, shared, sim)
        acct.on_offer(1500)
        shared.try_admit(1, 1500)
        shared._used += 7  # corrupt the pool ledger
        with pytest.raises(InvariantViolation):
            acct.check()


# ---------------------------------------------------------------------------
# Engine strict mode: no event behind the clock
# ---------------------------------------------------------------------------
class TestStrictEngine:
    def test_strict_catches_event_behind_clock(self):
        sim = Simulator(strict=True)
        sim.schedule_at(1.0, lambda: None)
        sim.now = 5.0  # simulated clock corruption
        with pytest.raises(SimulationError):
            sim.run()

    def test_strict_step_catches_it_too(self):
        sim = Simulator(strict=True)
        sim.schedule_at(1.0, lambda: None)
        sim.now = 5.0
        with pytest.raises(SimulationError):
            sim.step()

    def test_nonstrict_does_not_audit(self):
        sim = Simulator(strict=False)
        sim.schedule_at(1.0, lambda: None)
        sim.now = 5.0
        sim.run()  # silently processed (historical behaviour)

    def test_default_follows_enablement(self):
        sanitize.enable(True)
        assert Simulator()._strict
        sanitize.enable(False)
        assert not Simulator()._strict

    def test_scheduling_in_past_always_raises(self):
        sim = Simulator(strict=False)
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)


# ---------------------------------------------------------------------------
# End to end: real traffic through a sanitized datapath
# ---------------------------------------------------------------------------
def sanitized_pair(two_hosts):
    sim, topo, a, b, sw = two_hosts
    sanitize.enable(True)
    vsw_a = AcdcVswitch(a)
    vsw_b = AcdcVswitch(b)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    return sim, a, b, vsw_a, vsw_b


def test_clean_transfer_raises_nothing(two_hosts):
    sim, a, b, vsw_a, vsw_b = sanitized_pair(two_hosts)
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    sim.run(until=0.2)
    assert conn.bytes_acked_total == 500_000
    assert vsw_a.sanitizer is not None  # probes actually ran


def test_clean_transfer_with_wscale_and_restart(two_hosts):
    """Probes stay silent across the hard cases: window scaling active,
    plus a mid-flow vSwitch restart (counter resets, edge resets)."""
    sim, a, b, vsw_a, vsw_b = sanitized_pair(two_hosts)
    Sink(b, 7000, wscale=7)
    conn = a.connect(b.addr, 7000, wscale=7)
    conn.send_forever()
    sim.schedule(0.02, vsw_a.restart)
    sim.schedule(0.03, vsw_b.restart)
    sim.run(until=0.1)
    assert vsw_a.restarts == 1 and vsw_b.restarts == 1
    assert vsw_a.resurrections > 0
    assert conn.bytes_acked_total > 0


def test_lying_rewrite_caught_end_to_end(two_hosts, monkeypatch):
    """Inject a §3.3 bug — the enforcer writes a bogus window field — and
    the sanitizer must catch it on live traffic."""
    from repro.core.enforcement import WindowEnforcer

    def lying_enforce(self, pkt, window_bytes, wscale):
        pkt.rwnd_field = 1  # nowhere near the enforced window
        return True

    monkeypatch.setattr(WindowEnforcer, "enforce", lying_enforce)
    sim, a, b, vsw_a, vsw_b = sanitized_pair(two_hosts)
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    with pytest.raises(InvariantViolation) as exc:
        sim.run(until=0.2)
    assert exc.value.invariant == "rwnd-roundtrip"
    assert exc.value.sim_time is not None


def test_retreating_conntrack_caught_end_to_end(two_hosts, monkeypatch):
    """Inject a §3.1 bug — conntrack's snd_una jumps backwards — and the
    serial-monotonicity probe must catch it on live traffic."""
    from repro.core.conntrack import ConnTrack

    orig = ConnTrack.on_ingress_ack
    state = {"acks": 0}

    def retreating(self, pkt, now):
        verdict = orig(self, pkt, now)
        state["acks"] += 1
        if state["acks"] == 20 and self.snd_una is not None:
            self.snd_una = (self.snd_una - 100_000) % (1 << 32)
        return verdict

    monkeypatch.setattr(ConnTrack, "on_ingress_ack", retreating)
    sim, a, b, vsw_a, vsw_b = sanitized_pair(two_hosts)
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    with pytest.raises(InvariantViolation) as exc:
        sim.run(until=0.2)
    assert exc.value.invariant == "snd-una-monotonic"


# ---------------------------------------------------------------------------
# Violations land on the trace bus (schema and emit site locked together)
# ---------------------------------------------------------------------------
class _FakeFlight:
    """Flight-recorder stand-in: non-empty ring, deterministic dump path."""

    def __len__(self):
        return 3

    def dump(self, tag):
        return f"/tmp/flight-{tag}.jsonl"


class TestViolationTraceEvents:
    """`_fail` must emit `sanitizer.violation` (and `flight.dump` when a
    ring was dumped) on the vSwitch's trace bus before raising.

    The bus validates every emit against ``EVENT_SCHEMAS`` (validation
    is on by default), so this test locks the emit sites and the schema
    registrations together: drift in either direction raises here.
    """

    def _san(self, with_flight=False):
        from repro.obs.trace import TraceBus

        sim = Simulator()
        bus = TraceBus(sim)
        vswitch = SimpleNamespace(sim=sim,
                                  host=SimpleNamespace(addr="10.0.0.1"),
                                  trace=bus)
        if with_flight:
            vswitch.flight = _FakeFlight()
        return DatapathSanitizer(vswitch), bus

    def test_fail_emits_schema_valid_violation_event(self):
        san, bus = self._san()
        with pytest.raises(InvariantViolation):
            san._fail("snd-una-monotonic", "went backwards", flow=KEY)
        events = [e for e in bus.events if e.type == "sanitizer.violation"]
        assert len(events) == 1
        assert events[0].fields["invariant"] == "snd-una-monotonic"
        assert events[0].flow == KEY
        assert not [e for e in bus.events if e.type == "flight.dump"]

    def test_fail_emits_flight_dump_event_when_ring_dumped(self):
        san, bus = self._san(with_flight=True)
        with pytest.raises(InvariantViolation) as exc:
            san._fail("rwnd-roundtrip", "bad encode", flow=KEY)
        dumps = [e for e in bus.events if e.type == "flight.dump"]
        assert len(dumps) == 1
        assert dumps[0].fields["path"] == exc.value.flight_dump
        assert dumps[0].fields["invariant"] == "rwnd-roundtrip"

    def test_fail_without_trace_hook_stays_silent(self):
        # The zero-cost-off contract: no bus, no emission, same raise.
        sim = Simulator()
        vswitch = SimpleNamespace(sim=sim,
                                  host=SimpleNamespace(addr="10.0.0.1"))
        san = DatapathSanitizer(vswitch)
        with pytest.raises(InvariantViolation):
            san._fail("snd-una-monotonic", "went backwards", flow=KEY)
