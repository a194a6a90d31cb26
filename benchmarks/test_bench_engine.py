"""Engine microbenchmarks — the repo's tracked perf trajectory.

Unlike the figure benchmarks (which regenerate the paper's evaluation),
this suite measures the *simulator itself*: raw calendar throughput
(events/sec), timer-churn throughput under lazy deletion (the RTO
pattern: most scheduled events are cancelled before firing), and
end-to-end simulated-packets/sec on the dumbbell and incast topologies.

Every test records its measurement, and a session-scoped fixture writes
them all to ``BENCH_ENGINE.json`` (``REPRO_BENCH_DIR`` overrides the
directory) so each future PR has a perf baseline to move.  Set
``REPRO_BENCH_QUICK=1`` for the CI perf-smoke job's reduced scale.

Wall-clock reads are fine here: benchmarks time the host, not the
simulation (repro-lint's RL003 governs ``src/`` only).
"""

from __future__ import annotations

import time

from conftest import QUICK, bench_report_fixture

from repro.experiments.common import ACDC, DCTCP
from repro.experiments.runners import run_dumbbell, run_incast
from repro.sim import Simulator

#: Very loose floors — they catch order-of-magnitude regressions (an
#: accidentally quadratic hot path), not CI-runner jitter.
MIN_EVENTS_PER_SEC = 20_000.0
MIN_PACKETS_PER_SEC = 2_000.0

RESULTS: dict = {}


bench_report = bench_report_fixture(
    "BENCH_ENGINE.json", "repro-bench-engine/v1", RESULTS, host_info=True)


def _record(name: str, **fields) -> None:
    RESULTS[name] = fields


# ---------------------------------------------------------------------------
# Raw calendar throughput
# ---------------------------------------------------------------------------
def test_bench_event_throughput(capsys):
    """events/sec through the hot loop: K interleaved periodic chains."""
    sim = Simulator()
    total = 100_000 if QUICK else 1_000_000
    chains = 32
    per_chain = total // chains

    def tick(chain: int, remaining: int) -> None:
        if remaining:
            sim.schedule(1e-6 * (chain + 1), tick, chain, remaining - 1)

    for chain in range(chains):
        sim.schedule(0.0, tick, chain, per_chain - 1)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    rate = sim.events_processed / elapsed
    _record("event_throughput",
            events=sim.events_processed, seconds=elapsed,
            events_per_sec=rate)
    with capsys.disabled():
        print(f"\nengine event throughput: {rate:,.0f} events/s "
              f"({sim.events_processed} events in {elapsed:.3f}s)")
    assert sim.events_processed == chains * per_chain
    assert rate > MIN_EVENTS_PER_SEC


def test_bench_timer_churn(capsys):
    """The RTO pattern: nearly every scheduled timer is cancelled.

    Exercises lazy deletion end to end through the cancellable entry
    point (``arm_at``): corpse counting plus heap compaction once corpses
    dominate.
    """
    sim = Simulator()
    rounds = 20_000 if QUICK else 200_000

    state = {"pending": None, "n": 0}

    def on_ack() -> None:
        # Each "ACK" defuses the previous RTO and arms a new one.
        if state["pending"] is not None:
            state["pending"].cancel()
        state["n"] += 1
        if state["n"] < rounds:
            state["pending"] = sim.arm_at(sim.now + 0.2, rto_fire)
            sim.schedule(1e-7, on_ack)

    def rto_fire() -> None:  # pragma: no cover - timers are cancelled
        raise AssertionError("cancelled RTO fired")

    sim.schedule(0.0, on_ack)
    start = time.perf_counter()
    # All ACK rounds land well before the first (never-cancelled, final)
    # RTO deadline at ~0.2, so nothing cancelled ever fires.
    sim.run(until=0.1)
    elapsed = time.perf_counter() - start
    scheduled = state["n"] * 2  # one RTO + one ACK per round
    rate = scheduled / elapsed
    _record("timer_churn",
            scheduled_events=scheduled, seconds=elapsed,
            events_per_sec=rate, heap_compactions=sim.heap_compactions)
    with capsys.disabled():
        print(f"\nengine timer churn: {rate:,.0f} scheduled events/s, "
              f"{sim.heap_compactions} heap compactions")
    assert state["n"] == rounds
    # The cancelled-corpse fraction crossed the threshold at least once.
    assert sim.heap_compactions >= 1
    assert rate > MIN_EVENTS_PER_SEC


# ---------------------------------------------------------------------------
# End-to-end simulated-packet throughput
# ---------------------------------------------------------------------------
def _packets_and_events(result) -> tuple:
    topo = result.topology
    packets = sum(sw.total_tx_packets() for sw in topo.switches.values())
    return packets, result.sim.events_processed


def test_bench_dumbbell_packet_rate(capsys):
    """Simulated packets/sec on the Fig. 7a dumbbell under AC/DC."""
    duration = 0.02 if QUICK else 0.1
    start = time.perf_counter()
    result = run_dumbbell(ACDC, pairs=5, duration=duration, mtu=1500,
                          rate_bps=1e9, rtt_probe=False)
    elapsed = time.perf_counter() - start
    packets, events = _packets_and_events(result)
    _record("dumbbell_packet_rate",
            topology="dumbbell", scheme="acdc", packets=packets,
            events=events, seconds=elapsed,
            packets_per_sec=packets / elapsed,
            events_per_sec=events / elapsed)
    with capsys.disabled():
        print(f"\ndumbbell (acdc): {packets / elapsed:,.0f} simulated "
              f"packets/s, {events / elapsed:,.0f} events/s")
    assert packets > 0
    assert packets / elapsed > MIN_PACKETS_PER_SEC


def test_bench_incast_packet_rate(capsys):
    """Simulated packets/sec on the Fig. 18 incast star under DCTCP."""
    duration = 0.02 if QUICK else 0.1
    n = 8 if QUICK else 16
    start = time.perf_counter()
    result = run_incast(DCTCP, n_senders=n, duration=duration, mtu=1500)
    elapsed = time.perf_counter() - start
    packets, events = _packets_and_events(result)
    _record("incast_packet_rate",
            topology="incast", scheme="dctcp", senders=n, packets=packets,
            events=events, seconds=elapsed,
            packets_per_sec=packets / elapsed,
            events_per_sec=events / elapsed)
    with capsys.disabled():
        print(f"\nincast x{n} (dctcp): {packets / elapsed:,.0f} simulated "
              f"packets/s, {events / elapsed:,.0f} events/s")
    assert packets > 0
    assert packets / elapsed > MIN_PACKETS_PER_SEC
