"""INT-overhead benchmarks for the in-network telemetry pipeline.

The contract under test is the issue's acceptance bound: with INT OFF
(no :class:`~repro.obs.IntTelemetry` bound, i.e. every ``_int`` /
``int_tel`` hook attribute holding ``None``), the datapath must stay
within a small tolerance of the committed ``BENCH_ENGINE.json``
packet-rate baseline.  The default tolerance is deliberately generous —
CI runners and the baseline host differ by far more than one ``is
None`` test per hop — and ``REPRO_INT_TOL`` tightens it for a same-host
check (the 2% bound was verified locally with back-to-back A/B medians
before the baseline was committed).

A second, informational pass runs the same cells with INT on (stamping
at every hop, sink echoes, sender-side views) and reports the slowdown;
telemetry is an observability mode, so it gets sanity assertions (the
pipeline actually produced reports), not a bound.

Wall-clock reads are fine here: benchmarks time the host, not the
simulation (repro-lint's RL003 governs ``src/`` only).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest
from conftest import QUICK, bench_report_fixture

from repro.experiments.common import ACDC, DCTCP
from repro.experiments.runners import run_dumbbell, run_incast
from repro.obs import IntTelemetry

#: Allowed fractional regression vs the committed baseline.  Override
#: with REPRO_INT_TOL (e.g. 0.05 for a same-host regression check).
TOLERANCE = float(os.environ.get("REPRO_INT_TOL", "0.5"))

#: The committed perf baseline; REPRO_BENCH_BASELINE overrides the path.
BASELINE_PATH = Path(os.environ.get(
    "REPRO_BENCH_BASELINE",
    Path(__file__).resolve().parent.parent / "BENCH_ENGINE.json"))

RESULTS: dict = {}


bench_report = bench_report_fixture(
    "BENCH_INT.json", "repro-bench-int/v1", RESULTS, tolerance=TOLERANCE)


def _baseline_rate(key: str) -> float:
    if not BASELINE_PATH.exists():
        pytest.skip(f"no perf baseline at {BASELINE_PATH}")
    data = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    result = data.get("results", {}).get(key)
    if not result or "packets_per_sec" not in result:
        pytest.skip(f"baseline has no {key} measurement")
    return float(result["packets_per_sec"])


def _dumbbell(int_tel=None):
    duration = 0.02 if QUICK else 0.1
    start = time.perf_counter()
    result = run_dumbbell(ACDC, pairs=5, duration=duration, mtu=1500,
                          rate_bps=1e9, rtt_probe=False, int_tel=int_tel)
    elapsed = time.perf_counter() - start
    packets = sum(sw.total_tx_packets()
                  for sw in result.topology.switches.values())
    return packets / elapsed, result


def _incast(int_tel=None, scheme=DCTCP):
    duration = 0.02 if QUICK else 0.1
    n = 8 if QUICK else 16
    start = time.perf_counter()
    result = run_incast(scheme, n_senders=n, duration=duration, mtu=1500,
                        int_tel=int_tel)
    elapsed = time.perf_counter() - start
    packets = sum(sw.total_tx_packets()
                  for sw in result.topology.switches.values())
    return packets / elapsed, result


def _best_of(fn, reps: int = 3) -> float:
    return max(fn()[0] for _ in range(reps))


# ---------------------------------------------------------------------------
# INT OFF: the hooks must be free
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key,fn", [
    ("dumbbell_packet_rate", _dumbbell),
    ("incast_packet_rate", _incast),
])
def test_bench_int_off_overhead(key, fn, capsys):
    baseline = _baseline_rate(key)
    rate = _best_of(fn)
    ratio = rate / baseline
    RESULTS[f"int_off_{key}"] = {
        "packets_per_sec": rate, "baseline_packets_per_sec": baseline,
        "ratio": ratio,
    }
    with capsys.disabled():
        print(f"\nint-off {key}: {rate:,.0f} pk/s vs baseline "
              f"{baseline:,.0f} ({(ratio - 1) * 100:+.1f}%)")
    assert ratio >= 1.0 - TOLERANCE, (
        f"int-off datapath regressed {(1 - ratio) * 100:.1f}% vs "
        f"baseline (tolerance {TOLERANCE * 100:.0f}%)")


# ---------------------------------------------------------------------------
# INT ON: informational — observability mode, no bound
# ---------------------------------------------------------------------------
def _incast_acdc(int_tel=None):
    # The sink/echo half of the pipeline lives in the AC/DC vSwitch, so
    # the INT-on measurement needs a vswitch-backed scheme (host-stack
    # DCTCP stamps at the switches but nothing terminates the stacks).
    return _incast(int_tel=int_tel, scheme=ACDC)


@pytest.mark.parametrize("name,fn", [
    ("dumbbell", _dumbbell),
    ("incast", _incast_acdc),
])
def test_bench_int_on_informational(name, fn, capsys):
    off_rate = _best_of(fn, reps=1)
    tel = IntTelemetry()
    on_rate, result = fn(int_tel=tel)
    snap = tel.snapshot()
    assert snap["stamped"] > 0, "INT run stamped nothing"
    assert snap["reports_ok"] > 0, "INT run produced no reports"
    RESULTS[f"int_on_{name}"] = {
        "packets_per_sec": on_rate,
        "int_off_packets_per_sec": off_rate,
        "slowdown": off_rate / on_rate if on_rate else float("inf"),
        "stamped": snap["stamped"],
        "reports_ok": snap["reports_ok"],
    }
    with capsys.disabled():
        print(f"\nint-on {name}: {on_rate:,.0f} pk/s "
              f"({off_rate / on_rate:.2f}x slowdown, "
              f"{snap['stamped']} stacks stamped, "
              f"{snap['reports_ok']} reports)")
