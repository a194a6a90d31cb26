"""Fluid tier: model laws, coupling contract, fidelity vs the packet tier.

The load-bearing contracts (DESIGN.md §15):

* a zero-background hybrid run is **byte-identical** to pure-packet
  mode — same event count, same throughputs, same switch counters,
  same telemetry;
* the fluid tier is deterministic and RNG-free;
* a single fluid DCTCP class converges to the same steady state a
  packet-level DCTCP flow reaches (utilization within tolerance);
* the fluid overlay never breaks the sanitizer's packet-tier
  byte-conservation audit.
"""

import pytest

from repro.analysis import sanitize
from repro.experiments.common import DCTCP
from repro.experiments.hybrid import (hybrid_dumbbell_scenario,
                                     run_hybrid_dumbbell, run_hybrid_incast)
from repro.experiments.runners import run_dumbbell
from repro.fluid import FluidClass, FluidFlowSpec, FluidPort, FluidTier
from repro.fluid.coupling import DT_S
from repro.fluid.model import MSS
from repro.net.buffer import SharedBuffer
from repro.net.link import SwitchTxPort
from repro.net.red import EcnMarker
from repro.sim import Simulator
from repro.workloads.background import BackgroundFlowGroup

RATE = 1e9
K = 20 * 1500
DT = DT_S


def make_fluid_port(rate=RATE, k=K, enabled=True):
    sim = Simulator()
    shared = SharedBuffer(9 * 1024 * 1024)
    marker = EcnMarker(enabled=enabled, threshold_bytes=k)
    port = SwitchTxPort(sim, rate, 5e-6, shared, marker, queue_id=0)
    fport = FluidPort(port, shared, marker)
    port.add_tap(fport)
    return sim, shared, marker, port, fport


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ValueError):
        FluidFlowSpec("x", n_flows=0, rtt_s=1e-3)
    with pytest.raises(ValueError):
        FluidFlowSpec("x", n_flows=1, rtt_s=0.0)
    with pytest.raises(ValueError):
        FluidFlowSpec("x", n_flows=1, rtt_s=1e-3, cc="bbr")
    for rtt_s in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rtt_s"):
            FluidFlowSpec("x", n_flows=1, rtt_s=rtt_s)


@pytest.mark.parametrize("dt, steps", [(25e-6, 40), (1e-4, 10)])
def test_feedback_window_closes_after_one_rtt_of_steps(dt, steps):
    """Forty 25 us steps sum to just under 1 ms in floats; the window
    still closes at the fortieth, not the forty-first."""
    cls = FluidClass(FluidFlowSpec("x", n_flows=1, rtt_s=1e-3))
    closed = []
    for step in range(1, 3 * steps + 1):
        cls.advance_feedback(dt)
        if cls.rtt_clock == 0.0:
            closed.append(step)
    assert closed == [steps, 2 * steps, 3 * steps]


def test_router_modes():
    groups = (
        BackgroundFlowGroup("a", n_flows=4, rtt_s=1e-3, cc="dctcp"),
        BackgroundFlowGroup("b", n_flows=2, rtt_s=1e-3, cc="reno"),
    )

    def tiers(mode):
        """(background packet flows' stacks, fluid group names)."""
        scenario = hybrid_dumbbell_scenario(
            DCTCP, fg_pairs=1, background=groups, duration=0.01,
            tier_mode=mode)
        fluid = scenario.fluid.groups if scenario.fluid is not None else ()
        return ([f.cc for f in scenario.flows[1:]], [g.name for g in fluid])

    assert tiers("auto") == ([], ["a", "b"])
    assert tiers("packet") == (["dctcp"] * 4 + ["reno"] * 2, [])
    for mode in ("fluid", "hybrid"):
        with pytest.raises(ValueError):
            tiers(mode)


def test_router_ect_defaults_from_cc():
    dctcp = BackgroundFlowGroup("a", n_flows=1, rtt_s=1e-3, cc="dctcp")
    reno = BackgroundFlowGroup("b", n_flows=1, rtt_s=1e-3, cc="reno")
    assert dctcp.to_fluid_spec().ect is True
    assert reno.to_fluid_spec().ect is False


# ---------------------------------------------------------------------------
# Single-class steady state and determinism
# ---------------------------------------------------------------------------
def run_single_class(steps=5000, n_flows=1, cc="dctcp"):
    _sim, shared, _marker, _port, fport = make_fluid_port()
    fport.add_class(FluidFlowSpec("bg", n_flows=n_flows, rtt_s=1e-3, cc=cc))
    for _ in range(steps):
        fport.step()
    return shared, fport


def test_single_dctcp_class_fills_the_link():
    """One fluid DCTCP flow sustains near-line-rate, queue near K."""
    steps = 5000
    shared, fport = run_single_class(steps=steps)
    cls = fport.classes[0]
    utilization = fport.delivered_bytes * 8 / (RATE * steps * DT)
    assert utilization >= 0.85
    # The DCTCP sawtooth parks the queue around K, not at the DT cap.
    assert shared.occupancy(0) <= 6 * K
    assert cls.alpha > 0.0  # marking feedback actually engaged
    assert cls.cwnd >= MSS


def test_fluid_matches_packet_steady_state():
    """Fluid single-flow utilization within 0.2 of a packet DCTCP pair."""
    steps = 5000
    _shared, fport = run_single_class(steps=steps)
    u_fluid = fport.delivered_bytes * 8 / (RATE * steps * DT)
    pkt = run_dumbbell(DCTCP, pairs=1, duration=0.05, mtu=1500,
                       rate_bps=RATE, rtt_probe=False)
    u_packet = pkt.tputs_bps[0] / RATE
    assert abs(u_fluid - u_packet) <= 0.2


def test_fluid_is_deterministic_and_rng_free():
    import repro.sim.rng as rng_registry
    before = rng_registry.stream(0, "red.wred-drop").getstate() \
        if hasattr(rng_registry.stream(0, "red.wred-drop"), "getstate") \
        else None
    a_shared, a = run_single_class(steps=1500)
    b_shared, b = run_single_class(steps=1500)
    assert a.delivered_bytes == b.delivered_bytes
    assert a.marked_bytes == b.marked_bytes
    assert a.classes[0].cwnd == b.classes[0].cwnd
    assert a_shared.occupancy(0) == b_shared.occupancy(0)
    if before is not None:
        after = rng_registry.stream(0, "red.wred-drop").getstate()
        assert after == before  # batch WRED never consumes the RNG


def test_nonect_class_starves_under_marking():
    """The Fig. 15 trap in fluid form: non-ECT background competing with
    a DCTCP class that parks the queue above K gets WRED-dropped."""
    _sim, _shared, _marker, _port, fport = make_fluid_port()
    fport.add_class(FluidFlowSpec("dctcp", n_flows=8, rtt_s=1e-3,
                                  cc="dctcp"))
    fport.add_class(FluidFlowSpec("reno", n_flows=8, rtt_s=1e-3, cc="reno"))
    for _ in range(5000):
        fport.step()
    dctcp, reno = fport.classes
    # Expected-value WRED is gentler than per-packet coin flips (the
    # drop *fraction* near K is small, while a real ramp draw kills
    # whole packets), so the fluid starvation ratio undershoots the
    # packet-tier Fig. 15 one — a documented fidelity boundary
    # (DESIGN.md §15).  The ordering must still be decisive.
    assert dctcp.delivered_bytes > 3 * reno.delivered_bytes
    assert reno.lost_bytes > 0.0


def test_disabled_marker_means_no_marks_only_dt_losses():
    _sim, _shared, _marker, _port, fport = make_fluid_port(enabled=False)
    fport.add_class(FluidFlowSpec("bg", n_flows=16, rtt_s=1e-3, cc="reno"))
    for _ in range(3000):
        fport.step()
    assert fport.marked_bytes == 0.0
    assert fport.wred_dropped_bytes == 0.0


# ---------------------------------------------------------------------------
# Coupling hooks
# ---------------------------------------------------------------------------
def test_service_inflation_identity_when_idle():
    _sim, _shared, _marker, port, fport = make_fluid_port()
    assert fport.service_inflation() == 1.0
    # With arrivals, inflation is capped by the packet-share floor.
    fport.arrival_bps = RATE * 10
    from repro.fluid.coupling import MIN_PACKET_SHARE
    assert fport.service_inflation() == pytest.approx(1.0 / MIN_PACKET_SHARE)


def test_overlay_pressure_reaches_packet_wred(trap=None):
    """Fluid backlog alone pushes the composed occupancy over K, so an
    arriving ECT packet is marked even with an empty packet queue."""
    from repro.net.packet import ECN_ECT0, Packet
    sim, shared, _marker, port, fport = make_fluid_port()
    fport.add_class(FluidFlowSpec("bg", n_flows=640, rtt_s=1e-3,
                                  cc="dctcp"))
    fport.step()  # one step: classes dump 640 x 1 MSS, overlay > K
    assert shared.occupancy(0) > K
    assert shared.queue_bytes(0) == 0
    pkt = Packet(src="a", dst="b", sport=1, dport=2, payload_len=960,
                 ecn=ECN_ECT0)
    assert port.enqueue(pkt)
    assert port.stats.marked_packets == 1


def test_tier_without_classes_schedules_nothing():
    sim = Simulator()
    tier = FluidTier(sim)
    from repro.net.switch import Switch
    switch = Switch(sim, "sw", ecn_enabled=True)
    switch.add_port(RATE, 5e-6)
    tier.couple(switch, 0)
    tier.start()
    assert not tier.active
    assert not tier._timer.running
    sim.run(until=0.01)
    assert sim.events_processed == 0


def test_tier_stepper_advances_ports():
    sim = Simulator()
    tier = FluidTier(sim)
    from repro.net.switch import Switch
    switch = Switch(sim, "sw", ecn_enabled=True,
                    ecn_threshold_bytes=K)
    switch.add_port(RATE, 5e-6)
    fport = tier.couple(switch, 0, classes=(
        FluidFlowSpec("bg", n_flows=4, rtt_s=1e-3, cc="dctcp"),))
    tier.start()
    sim.run(until=0.05)
    assert fport.steps == pytest.approx(0.05 / DT, abs=1)
    assert fport.delivered_bytes > 0
    assert tier.snapshot()["ports"][0]["delivered_bytes"] == \
        fport.delivered_bytes
    tier.stop()
    processed = sim.events_processed
    sim.run(until=0.06)
    assert sim.events_processed == processed  # stopped: no further ticks


# ---------------------------------------------------------------------------
# Byte-identity of zero-background hybrid runs
# ---------------------------------------------------------------------------
def run_signature(result):
    """Everything observable about a run, for exact A/B comparison."""
    topo = result.topology
    ports = {}
    for name, sw in sorted(topo.switches.items()):
        for pid, port in sorted(sw.ports.items()):
            s = port.stats
            ports[f"{name}.{pid}"] = (s.tx_packets, s.tx_bytes,
                                      s.dropped_packets, s.dropped_bytes,
                                      s.marked_packets)
    markers = {name: sw.marker.snapshot()
               for name, sw in sorted(topo.switches.items())}
    return {
        "events": result.sim.events_processed,
        "now": result.sim.now,
        "tputs": result.tputs_bps,
        "drop_rate": result.drop_rate,
        "ports": ports,
        "markers": markers,
        "telemetry": result.telemetry,
    }


def test_zero_background_hybrid_is_byte_identical():
    """Installing the coupling hooks with no fluid classes must not
    change one byte of the run: same events, throughputs, counters."""
    from repro.obs import ObsContext
    runs = []
    for inert in (False, True):
        result = run_hybrid_dumbbell(
            DCTCP, fg_pairs=2, background=(), duration=0.02,
            rate_bps=RATE, seed=0, inert_coupling=inert,
            obs=ObsContext())
        assert bool(result.fluid) == inert
        runs.append(run_signature(result))
    assert runs[0] == runs[1]
    assert runs[0]["tputs"][0] > 0  # the run actually carried traffic


def test_zero_background_incast_is_byte_identical():
    runs = []
    for inert in (False, True):
        result = run_hybrid_incast(
            DCTCP, n_senders=4, background=(), duration=0.02,
            rate_bps=RATE, seed=0, inert_coupling=inert)
        runs.append(run_signature(result))
    assert runs[0] == runs[1]


def test_hybrid_run_is_deterministic():
    sigs = []
    bg = (BackgroundFlowGroup("bg", n_flows=16, rtt_s=1e-3, cc="dctcp"),)
    for _ in range(2):
        result = run_hybrid_dumbbell(
            DCTCP, fg_pairs=1, background=bg, duration=0.02,
            rate_bps=RATE, seed=0, bg_start_at=0.002)
        sig = run_signature(result)
        sig["fluid"] = result.fluid
        sigs.append(sig)
    assert sigs[0] == sigs[1]


# ---------------------------------------------------------------------------
# Sanitizer compatibility and hybrid behaviour
# ---------------------------------------------------------------------------
def test_hybrid_with_background_passes_sanitizer():
    """The overlay must stay out of the packet-tier byte-conservation
    audit: a sanitized hybrid run with real background raises nothing."""
    bg = (BackgroundFlowGroup("bg", n_flows=24, rtt_s=1e-3, cc="dctcp"),)
    sanitize.enable(True)
    try:
        result = run_hybrid_dumbbell(
            DCTCP, fg_pairs=1, background=bg, duration=0.02,
            rate_bps=RATE, seed=0, bg_start_at=0.002)
    finally:
        sanitize.enable(None)
    assert result.fluid["active"]
    assert result.fluid["ports"][0]["delivered_bytes"] > 0


def test_background_squeezes_foreground():
    """Fluid background takes real bandwidth from the packet foreground."""
    quiet = run_hybrid_dumbbell(DCTCP, fg_pairs=1, background=(),
                                duration=0.03, rate_bps=RATE, seed=0)
    bg = (BackgroundFlowGroup("bg", n_flows=48, rtt_s=1e-3, cc="dctcp"),)
    loud = run_hybrid_dumbbell(DCTCP, fg_pairs=1, background=bg,
                               duration=0.03, rate_bps=RATE, seed=0,
                               bg_start_at=0.002)
    assert loud.tputs_bps[0] < 0.7 * quiet.tputs_bps[0]
    assert loud.tputs_bps[0] > 0  # ... but the foreground still lives


def test_packet_tier_background_rides_packets():
    bg = (BackgroundFlowGroup("bg", n_flows=2, rtt_s=1e-3, cc="dctcp"),)
    result = run_hybrid_dumbbell(DCTCP, fg_pairs=1, background=bg,
                                 duration=0.02, rate_bps=RATE, seed=0,
                                 tier_mode="packet")
    assert len(result.flows) == 3  # 1 fg + 2 packet-tier background
    assert not result.fluid       # nothing rode the fluid tier
