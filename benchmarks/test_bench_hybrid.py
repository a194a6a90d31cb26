"""Hybrid-fidelity benchmark: effective packets/sec with fluid background.

The tentpole claim: carrying background load on the fluid tier buys at
least **10x effective simulated packets per wall-second** over the
pure-packet engine baseline (``test_bench_engine``'s dumbbell), at an
offered load at least as large as the baseline's.

Accounting is calibrated against the baseline itself.  The baseline's
switch counters pay ~4 port traversals per delivered MSS (data through
two switches, plus the ACK path), so one delivered fluid MSS is
credited ``equiv_factor = baseline_switch_packets /
baseline_delivered_mss`` effective packets — the exact packet-counter
cost the same bytes would have incurred on the packet tier.  Foreground
packets are counted directly off the switch counters, same as the
baseline.

Results land in ``BENCH_HYBRID.json`` (``REPRO_BENCH_DIR`` overrides
the directory); ``REPRO_BENCH_QUICK=1`` selects the CI smoke scale.
Wall-clock reads are fine here: benchmarks time the host, not the
simulation (repro-lint's RL003 governs ``src/`` only).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import QUICK, bench_report_fixture

from repro.experiments.common import ACDC
from repro.experiments.hybrid import run_hybrid_dumbbell
from repro.experiments.runners import run_dumbbell
from repro.workloads.background import BackgroundFlowGroup

MSS = 1460

#: The tentpole floor: hybrid effective packets/sec vs the pure-packet
#: dumbbell baseline measured fresh on the same host (machine-speed
#: independent ratio).
MIN_SPEEDUP = 10.0

RESULTS: dict = {}


bench_report = bench_report_fixture(
    "BENCH_HYBRID.json", "repro-bench-hybrid/v1", RESULTS, host_info=True)


def _stored_engine_baseline() -> float:
    """The committed BENCH_ENGINE.json dumbbell figure, for the report."""
    path = Path(__file__).resolve().parent.parent / "BENCH_ENGINE.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return float(payload["results"]["dumbbell_packet_rate"]
                     ["packets_per_sec"])
    except (OSError, KeyError, ValueError):
        return 0.0


def _switch_packets(result) -> int:
    return sum(sw.total_tx_packets()
               for sw in result.topology.switches.values())


def _fluid_delivered(result) -> float:
    return sum(p["delivered_bytes"] for p in result.fluid.get("ports", ()))


#: The hybrid scenario's background: a large DCTCP cohort plus a non-ECT
#: Reno cohort sharing the 10 G bottleneck — aggregate demand far above
#: the baseline's offered load (5 pairs at 1 G).
BACKGROUND = (
    BackgroundFlowGroup("bg-dctcp", n_flows=128, rtt_s=1e-3, cc="dctcp"),
    BackgroundFlowGroup("bg-reno", n_flows=32, rtt_s=1e-3, cc="reno"),
)


def test_bench_hybrid_effective_packet_rate(capsys):
    """>= 10x effective packets/sec over the fresh pure-packet baseline."""
    duration = 0.02 if QUICK else 0.1

    # -- pure-packet baseline: the exact test_bench_engine dumbbell ----
    start = time.perf_counter()
    base = run_dumbbell(ACDC, pairs=5, duration=duration, mtu=1500,
                        rate_bps=1e9, rtt_probe=False)
    base_elapsed = time.perf_counter() - start
    base_packets = _switch_packets(base)
    base_pps = base_packets / base_elapsed
    base_mss = sum(f.bytes_acked for f in base.flows) / MSS
    # Switch-counter packets the packet tier pays per delivered MSS
    # (data + ACK traversals); credits fluid bytes at the same rate.
    equiv_factor = base_packets / base_mss

    # -- hybrid: 1 paced foreground pair + 160 fluid background flows --
    start = time.perf_counter()
    hybrid = run_hybrid_dumbbell(
        ACDC, fg_pairs=1, background=BACKGROUND, duration=duration,
        mtu=1500, rate_bps=10e9, seed=0, bg_start_at=0.002,
        fg_conn_opts={"pacing_rate_bps": 200e6})
    hybrid_elapsed = time.perf_counter() - start
    hybrid_packets = _switch_packets(hybrid)
    fluid_bytes = _fluid_delivered(hybrid)
    effective = hybrid_packets + (fluid_bytes / MSS) * equiv_factor
    effective_pps = effective / hybrid_elapsed
    speedup = effective_pps / base_pps

    stored = _stored_engine_baseline()
    RESULTS["hybrid_dumbbell"] = {
        "duration_s": duration,
        "baseline": {
            "packets": base_packets, "seconds": base_elapsed,
            "packets_per_sec": base_pps,
            "delivered_mss": base_mss,
            "equiv_factor": equiv_factor,
            "stored_bench_engine_pps": stored,
        },
        "hybrid": {
            "switch_packets": hybrid_packets,
            "fluid_delivered_bytes": fluid_bytes,
            "fluid_equiv_packets": fluid_bytes / MSS * equiv_factor,
            "seconds": hybrid_elapsed,
            "effective_packets_per_sec": effective_pps,
            "fg_tput_bps": hybrid.tputs_bps[0],
            "events": hybrid.sim.events_processed,
            "background_flows": sum(g.n_flows for g in BACKGROUND),
        },
        "speedup": speedup,
    }
    with capsys.disabled():
        print(f"\nhybrid: {effective_pps:,.0f} effective pkts/s vs "
              f"baseline {base_pps:,.0f} pkts/s -> {speedup:.1f}x "
              f"(equiv factor {equiv_factor:.2f}, fg "
              f"{hybrid.tputs_bps[0] / 1e6:.0f} Mb/s)")
    # The scenario must still be a real hybrid: live foreground traffic
    # and background actually delivered through the coupled port.
    assert hybrid.tputs_bps[0] > 0
    assert fluid_bytes > 0
    assert speedup >= MIN_SPEEDUP


def test_bench_hybrid_vs_allpacket_same_scenario(capsys):
    """Wall-clock speedup, same scenario: background fluid vs packet.

    Apples-to-apples at a size the packet tier can still afford: the
    identical background cohort carried as fluid classes vs expanded
    into real packet flows (``tier_mode='packet'``).
    """
    duration = 0.015 if QUICK else 0.05
    n_bg = 8 if QUICK else 24
    bg = (BackgroundFlowGroup("bg", n_flows=n_bg, rtt_s=1e-3,
                              cc="dctcp"),)
    kwargs = dict(fg_pairs=1, background=bg, duration=duration, mtu=1500,
                  rate_bps=1e9, seed=0, bg_start_at=0.002,
                  fg_conn_opts={"pacing_rate_bps": 200e6})

    start = time.perf_counter()
    fluid_run = run_hybrid_dumbbell(ACDC, tier_mode="auto", **kwargs)
    fluid_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    packet_run = run_hybrid_dumbbell(ACDC, tier_mode="packet", **kwargs)
    packet_elapsed = time.perf_counter() - start

    wall_speedup = packet_elapsed / fluid_elapsed
    RESULTS["hybrid_vs_allpacket"] = {
        "duration_s": duration,
        "background_flows": n_bg,
        "fluid_seconds": fluid_elapsed,
        "fluid_events": fluid_run.sim.events_processed,
        "packet_seconds": packet_elapsed,
        "packet_events": packet_run.sim.events_processed,
        "wall_speedup": wall_speedup,
    }
    with capsys.disabled():
        print(f"\nsame scenario, {n_bg} background flows: fluid "
              f"{fluid_elapsed:.2f}s vs all-packet {packet_elapsed:.2f}s "
              f"-> {wall_speedup:.1f}x")
    assert fluid_run.fluid["active"]
    assert not packet_run.fluid
    # Loose floor: the point is the recorded curve, not CI jitter.
    assert wall_speedup > 2.0
