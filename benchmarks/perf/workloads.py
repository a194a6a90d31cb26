"""The eight paper-shaped workloads of the perf ledger.

Each :class:`Workload` has a ``scenario(seed, duration)`` callable — the
thing that is timed, built only from the program's public runner,
topology and workload APIs — and an ``extract(raw, duration, tail_level)``
callable that turns what the scenario returned into one flat record
(see :func:`_stats`) *after* the clock has stopped.  The seed reaches the
program only through the runners' ``seed=`` (per-host transmit-jitter
RNG, shuffle order); the program sees nothing but the generated scenario.

Simulated quantities (``sim`` block, ``counts``) and host-time quantities
never share a number, with the one declared exception of ``pkts_per_s``
(simulated packets per host second), which is the point of the exercise.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import fig18_19_incast
from repro.experiments.common import (
    ACDC, CUBIC, DCTCP, attach_vswitches, switch_opts)
from repro.experiments.hybrid import run_hybrid_dumbbell
from repro.experiments.runners import run_dumbbell, run_incast
from repro.metrics import FctRecorder, jain_index, percentile
from repro.net.packet import mss_for_mtu
from repro.net.topology import star
from repro.obs import IntTelemetry, ObsContext
from repro.runtime import Runtime, canonical_json, is_cell_error
from repro.sim import Simulator
from repro.sim.rng import RngFactory
from repro.workloads.background import BackgroundFlowGroup
from repro.workloads.generators import Shuffle

#: Scratch space for the sweep's result cache, the children's shim logs
#: and trace dumps: the only place the benchmark writes (ignored by git).
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Simulated duration of the untimed warm-up of every workload.
WARMUP_DURATION = 0.02

DUMBBELL = dict(pairs=5, mtu=1500, rate_bps=1e9, rtt_probe=True)
INCAST = dict(n_senders=32, mtu=1500, rate_bps=10e9)
SHUFFLE = dict(hosts=17, rate_bps=1e9, mtu=9000, block_bytes=1 << 20,
               fanout=2, mice_bytes=16 * 1024, mice_interval=0.005)
HYBRID = dict(fg_pairs=1, mtu=1500, rate_bps=10e9, bg_start_at=0.002,
              pacing_rate_bps=200e6, bg_dctcp=128, bg_reno=32)
SWEEP = dict(counts=(16, 32), mtu=9000, rate_bps=10e9, jobs=2, n_seeds=2)

#: Share of an incast run the runner measures throughput over (its
#: steady-state window; ``run_incast`` starts measuring at 30 %).
INCAST_WINDOW = 0.7


# ---------------------------------------------------------------------------
# Extraction helpers (run after the timed call)
# ---------------------------------------------------------------------------
def _sim_block(goodput_frac: float, fair_over: Sequence[float],
               rtt_s: Sequence[float], tail_level: float,
               drop_frac: float) -> dict:
    """The paper's §5 observables, all in simulated units."""
    nan = float("nan")  # a warm-up is too short to complete a probe
    return {
        "goodput_frac": goodput_frac,
        "jain": jain_index(list(fair_over)),
        "rtt_p50_us": percentile(rtt_s, 50) * 1e6 if rtt_s else nan,
        "rtt_tail_us": percentile(rtt_s, tail_level) * 1e6 if rtt_s else nan,
        "rtt_n": len(rtt_s),
        "tail_level": tail_level,
        "drop_frac": drop_frac,
    }


def _digest(*parts) -> str:
    return hashlib.sha256(canonical_json(parts).encode("utf-8")).hexdigest()


def _stats(sim: Simulator, topo, vswitches: dict, flow_bytes: List[int],
           sim_block: dict, checks: Dict[str, bool],
           int_tel: Optional[IntTelemetry] = None,
           obs: Optional[ObsContext] = None,
           fluid: Optional[dict] = None) -> dict:
    """One flat record of a finished single-simulator run."""
    ports = [p.stats for sw in topo.switches.values()
             for p in sw.ports.values()]
    tx = sum(p.tx_packets for p in ports)
    drops = sum(p.dropped_packets for p in ports)
    marked = sum(p.marked_packets for p in ports)
    vsw = list(vswitches.values())
    conns = [c for h in topo.hosts.values() for c in h.connections.values()]
    fluid_ports = (fluid or {}).get("ports", ())
    tel = int_tel.snapshot() if int_tel is not None else {}
    counts = {
        "packets": tx,
        "events": sim.events_processed,
        "scheduled": sim.events_scheduled,
        "heap_compactions": sim.heap_compactions,
        "drops": drops,
        "marked": marked,
        "datapath_packets": sum(v.ops.packets_egress + v.ops.packets_ingress
                                for v in vsw),
        "ops": sum(v.ops.total() for v in vsw),
        "facks": sum(v.ops.counts["fack_create"] for v in vsw),
        "packs": sum(v.ops.counts["pack_attach"] for v in vsw),
        "flow_entries": sum(len(v.table) for v in vsw if hasattr(v, "table")),
        "retransmitted_bytes": sum(c.retransmitted_bytes for c in conns),
        "fast_retransmits": sum(c.fast_retransmits for c in conns),
        "int_reports_ok": tel.get("reports_ok", 0),
        "trace_records": len(obs.bus) if obs is not None else 0,
        "fluid_ticks": sum(p["steps"] for p in fluid_ports),
    }
    # What tapping a run must not change: the traffic and the paper's
    # observables.  The full digest adds the calendar's counts.
    sim_digest = _digest(tx, drops, marked, flow_bytes, sim_block)
    return {
        "counts": counts,
        "sim": sim_block,
        "sim_digest": sim_digest,
        "digest": _digest(sim_digest, counts["events"], counts["scheduled"]),
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Output checks on the paper's shape
# ---------------------------------------------------------------------------
def _shape_acdc(sim: dict, jain_floor: float = 0.95) -> Dict[str, bool]:
    """The paper's claim for AC/DC: full rate, fair, no loss."""
    return {
        "shape.no_drops": sim["drop_frac"] <= 1e-4,
        "shape.goodput": sim["goodput_frac"] >= 0.9,
        "shape.jain": sim["jain"] >= jain_floor,
    }


def _shape_lossy(sim: dict) -> Dict[str, bool]:
    # The control for the drop path: if it stops dropping it stops
    # exercising SACK recovery, RTO churn and the port's reject branch.
    return {"shape.stays_lossy": sim["drop_frac"] > 1e-3}


def _shape_none(_sim: dict) -> Dict[str, bool]:
    return {}


# ---------------------------------------------------------------------------
# Dumbbell family
# ---------------------------------------------------------------------------
def _dumbbell(scheme, taps: bool = False, **extra) -> Callable:
    def scenario(seed: int, duration: float):
        kwargs = dict(DUMBBELL, duration=duration, seed=seed, **extra)
        if taps:
            kwargs.update(obs=ObsContext(), int_tel=IntTelemetry())
        return run_dumbbell(scheme, **kwargs), kwargs
    return scenario


def _dumbbell_extract(shape: Callable[[dict], Dict[str, bool]]) -> Callable:
    def extract(raw, duration: float, tail_level: float) -> dict:
        result, kwargs = raw
        flow_bytes = [f.bytes_acked for f in result.flows]
        block = _sim_block(
            sum(flow_bytes) * 8 / (DUMBBELL["rate_bps"] * duration),
            flow_bytes, result.rtt_samples, tail_level, result.drop_rate)
        checks = shape(block)
        tel = kwargs.get("int_tel")
        if tel is not None:
            snap = tel.snapshot()
            checks["taps.stamped"] = snap["stamped"] > 0
            checks["taps.reports_ok"] = snap["reports_ok"] > 0
        return _stats(result.sim, result.topology, result.vswitches,
                      flow_bytes, block, checks, int_tel=tel,
                      obs=kwargs.get("obs"))
    return extract


# ---------------------------------------------------------------------------
# Incast
# ---------------------------------------------------------------------------
def _incast(seed: int, duration: float):
    return run_incast(ACDC, duration=duration, seed=seed, **INCAST)


def _incast_extract(result, duration: float, tail_level: float) -> dict:
    # Goodput and fairness over the runner's steady-state window.
    block = _sim_block(
        sum(result.tputs_bps) / INCAST["rate_bps"], result.tputs_bps,
        result.rtt_samples, tail_level, result.drop_rate)
    return _stats(result.sim, result.topology, result.vswitches,
                  [f.bytes_acked for f in result.flows], block,
                  _shape_acdc(block, jain_floor=0.98))


# ---------------------------------------------------------------------------
# Shuffle (built like fig22_shuffle.run_scheme, but keeps the topology)
# ---------------------------------------------------------------------------
def _shuffle(seed: int, duration: float):
    cfg = SHUFFLE
    sim = Simulator()
    topo, hosts, switch = star(
        sim, cfg["hosts"], rate_bps=cfg["rate_bps"], mtu=cfg["mtu"],
        seed=seed, **switch_opts(ACDC, cfg["rate_bps"]))
    vsw = attach_vswitches(ACDC, hosts)
    recorder = FctRecorder()
    shuffle = Shuffle(
        sim, hosts, recorder, block_bytes=cfg["block_bytes"],
        rng=RngFactory(seed).stream("fig22.shuffle-order"),
        fanout=cfg["fanout"], mice_bytes=cfg["mice_bytes"],
        mice_interval=cfg["mice_interval"], mice_until=duration * 0.6,
        conn_opts=ACDC.conn_opts())
    sim.run(until=duration)
    return sim, topo, switch, vsw, recorder, shuffle


def _shuffle_extract(raw, duration: float, tail_level: float) -> dict:
    sim, topo, switch, vsw, recorder, shuffle = raw
    per_host = [sum(c.bytes_acked_total for c in host.connections.values())
                for _name, host in sorted(topo.hosts.items())]
    delivered = sum(r.size_bytes for r in recorder.completed())
    block = _sim_block(
        delivered * 8 / (SHUFFLE["hosts"] * SHUFFLE["rate_bps"] * duration),
        per_host, recorder.fcts("mice"), tail_level, switch.drop_rate())
    checks = {
        "shape.no_drops": block["drop_frac"] <= 1e-4,
        "shape.blocks_complete": (
            shuffle.finished()
            and recorder.completion_fraction("background") == 1.0),
        "shape.mice_complete": recorder.completion_fraction("mice") == 1.0,
    }
    return _stats(sim, topo, vsw, per_host, block, checks)


# ---------------------------------------------------------------------------
# Hybrid (the BENCH_HYBRID scenario)
# ---------------------------------------------------------------------------
def _hybrid(seed: int, duration: float):
    cfg = HYBRID
    background = (
        BackgroundFlowGroup("bg-dctcp", n_flows=cfg["bg_dctcp"], rtt_s=1e-3,
                            cc="dctcp"),
        BackgroundFlowGroup("bg-reno", n_flows=cfg["bg_reno"], rtt_s=1e-3,
                            cc="reno"),
    )
    return run_hybrid_dumbbell(
        ACDC, fg_pairs=cfg["fg_pairs"], background=background,
        duration=duration, mtu=cfg["mtu"], rate_bps=cfg["rate_bps"],
        seed=seed, bg_start_at=cfg["bg_start_at"], rtt_probe=True,
        fg_conn_opts={"pacing_rate_bps": cfg["pacing_rate_bps"]})


def _hybrid_extract(result, duration: float, tail_level: float) -> dict:
    flow_bytes = [f.bytes_acked for f in result.flows]
    # Foreground only, against the rate it is paced to: the fluid
    # background owns the rest of the 10 G bottleneck by design.
    block = _sim_block(
        sum(flow_bytes) * 8 / (HYBRID["pacing_rate_bps"] * duration),
        flow_bytes, result.rtt_samples, tail_level, result.drop_rate)
    checks = {
        "shape.no_drops": block["drop_frac"] <= 1e-4,
        "shape.foreground_alive": sum(flow_bytes) > 0,
        "shape.fluid_delivered": any(
            p["delivered_bytes"] > 0 for p in result.fluid.get("ports", ())),
    }
    return _stats(result.sim, result.topology, result.vswitches,
                  flow_bytes, block, checks, fluid=result.fluid)


# ---------------------------------------------------------------------------
# Figure sweep (runtime + experiments: what a researcher runs)
# ---------------------------------------------------------------------------
def _sweep_call(seed: int, duration: float, runtime: Runtime):
    cfg = SWEEP
    return fig18_19_incast.run(
        counts=cfg["counts"], duration=duration, mtu=cfg["mtu"],
        seeds=[seed + k for k in range(cfg["n_seeds"])], runtime=runtime)


def _sweep(seed: int, duration: float):
    WORK_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=WORK_DIR)
    runtime = Runtime(jobs=SWEEP["jobs"], cache=cache_dir)
    cold = _sweep_call(seed, duration, runtime)
    after_cold = (runtime.stats.executed, runtime.stats.cache_hits)
    warm_start = time.perf_counter()
    warm = _sweep_call(seed, duration, runtime)
    warm_s = time.perf_counter() - warm_start
    return cold, warm, warm_s, runtime, after_cold, cache_dir


def _sweep_warmup(seed: int, duration: float):
    """Serial, cache-less, one small fan-in: warms the code paths in this
    interpreter, so the timed pool's workers fork from a warm parent."""
    return fig18_19_incast.run(counts=(4,), duration=duration,
                               mtu=SWEEP["mtu"], seeds=[seed],
                               runtime=Runtime(jobs=1))


def _sweep_extract(raw, duration: float, tail_level: float) -> dict:
    cold, warm, warm_s, runtime, after_cold, cache_dir = raw
    shutil.rmtree(cache_dir, ignore_errors=True)
    n_cells = (len(SWEEP["counts"]) * len(fig18_19_incast.ALL_SCHEMES)
               * SWEEP["n_seeds"])
    rows = [row for per_seed in cold["per_seed"] for row in per_seed]
    cells = [(row["senders"], cell) for row in rows
             for name, cell in row.items() if name != "senders"]
    acdc = [(row["senders"], row[ACDC.name]) for row in rows]
    block = {
        # Mean goodput over fair share, worst fairness, median of the
        # cells' medians, worst tail, worst drop rate: AC/DC cells only.
        "goodput_frac": statistics.fmean(
            c["avg_tput_mbps"] * 1e6 * n / SWEEP["rate_bps"]
            for n, c in acdc),
        "jain": min(c["fairness"] for _n, c in acdc),
        "rtt_p50_us": statistics.median(
            c["rtt_p50_ms"] for _n, c in acdc) * 1e3,
        "rtt_tail_us": max(c["rtt_p999_ms"] for _n, c in acdc) * 1e3,
        "rtt_n": len(acdc),
        "tail_level": tail_level,
        "drop_frac": max(c["drop_rate_pct"] for _n, c in acdc) / 100.0,
    }
    # No switch counter crosses the pool boundary, so "packets" here is
    # the delivered MSS segments the merged result accounts for (every
    # scheme, steady-state window): simulated, exactly repeating.
    segments = sum(c["avg_tput_mbps"] * 1e6 * n for n, c in cells) \
        * INCAST_WINDOW * duration / 8 / mss_for_mtu(SWEEP["mtu"])
    stats = runtime.stats
    checks = {
        "sweep.cold_equals_warm":
            canonical_json(cold) == canonical_json(warm),
        "sweep.cold_executed_all": after_cold == (n_cells, 0),
        "sweep.warm_all_hits": (stats.executed, stats.cache_hits)
            == (n_cells, n_cells),
        "sweep.no_cell_error": not any(is_cell_error(c) for _n, c in cells),
    }
    digest = _digest(canonical_json(cold), block)
    return {"counts": {"packets": round(segments), "cells": n_cells},
            "sim": block, "sim_digest": digest, "digest": digest,
            "checks": checks, "jobs": SWEEP["jobs"], "cache_hit_s": warm_s}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists (one line; also BENCHMARK.json's ``why``).
    why: str
    scenario: Callable
    extract: Callable
    #: Simulated seconds of the timed run.
    duration: float
    #: Shortest duration at which the scenario still carries traffic (a
    #: reduced-scale run is clamped to it).
    min_duration: float
    #: Percentile reported as ``sim_rtt_tail_us``: the highest of
    #: 50/75/90/95/99/99.9 with at least ten samples beyond it at seed 0
    #: (the sample count is printed with every result).  The sweep
    #: reports the worst p99.9 its cells computed.
    tail_level: float
    #: Scenario parameters, for the record.
    params: dict = field(default_factory=dict)
    #: Untimed warm-up, when it is not the scenario itself.
    warmup: Optional[Callable] = None
    #: False when the simulators run in pool workers: the traced run then
    #: wraps the runtime layer instead of the packet-level layers.
    packet_level: bool = True


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "dumbbell_acdc",
        "AC/DC fast path at the smallest data MTU, no loss: core is ~30% of "
        "host time, so op-counter, ACK-path and conntrack changes show first",
        _dumbbell(ACDC), _dumbbell_extract(_shape_acdc),
        duration=0.2, min_duration=0.01, tail_level=90,
        params=dict(DUMBBELL, scheme="acdc")),
    Workload(
        "dumbbell_plain",
        "DCTCP guests behind PlainOvs bypass core: sim+net dominate, so "
        "event fusion shows largest; the no-change control for core work",
        _dumbbell(DCTCP), _dumbbell_extract(_shape_none),
        duration=0.2, min_duration=0.01, tail_level=90,
        params=dict(DUMBBELL, scheme="dctcp")),
    Workload(
        "dumbbell_lossy",
        "CUBIC guests, switch ECN off: SACK scoreboard, fast retransmit, "
        "RTO churn and the port drop path instead of admit/mark",
        _dumbbell(CUBIC, probe_pipelined=True),
        _dumbbell_extract(_shape_lossy),
        duration=0.2, min_duration=0.01, tail_level=90,
        params=dict(DUMBBELL, scheme="cubic", probe_pipelined=True)),
    Workload(
        "incast_acdc",
        "32-to-1 at 10G: many flows per table, one deep shared-buffer "
        "queue, dense marks and FACKs, a deeper calendar (5 events/pkt)",
        _incast, _incast_extract,
        duration=0.048, min_duration=0.015, tail_level=50,
        params=dict(INCAST, scheme="acdc")),
    Workload(
        "shuffle_acdc",
        "17-host all-to-all blocks plus mice: flow-entry create/FIN/GC, "
        "handshake snooping and connection set-up instead of steady lookups",
        _shuffle, _shuffle_extract,
        duration=0.4, min_duration=0.02, tail_level=95,
        params=dict(SHUFFLE, scheme="acdc")),
    Workload(
        "dumbbell_acdc_taps",
        "dumbbell_acdc with ObsContext and IntTelemetry on: the only "
        "workload where obs does real work; its ratio is the taps-on cost",
        _dumbbell(ACDC, taps=True), _dumbbell_extract(_shape_acdc),
        duration=0.2, min_duration=0.01, tail_level=90,
        params=dict(DUMBBELL, scheme="acdc", taps=True)),
    Workload(
        "hybrid_dumbbell",
        "one paced packet flow over 160 fluid background flows: fluid and "
        "the SwitchTxPort coupling hook do most of the work",
        _hybrid, _hybrid_extract,
        duration=1.0, min_duration=0.02, tail_level=95,
        params=dict(HYBRID, scheme="acdc")),
    Workload(
        "figure_sweep",
        "Fig. 18/19 as a researcher runs it: 12 cells on a 2-worker pool, "
        "then again from the warm cache; runtime + experiments overhead",
        _sweep, _sweep_extract,
        duration=0.03, min_duration=0.02, tail_level=99.9,
        params=dict(SWEEP, schemes=[s.name
                                    for s in fig18_19_incast.ALL_SCHEMES]),
        warmup=_sweep_warmup, packet_level=False),
)}


def warm_up(workload: Workload, seed: int) -> str:
    """Run the untimed warm-up; returns a digest of what it simulated
    (same seed, same digest: the per-run determinism check)."""
    if workload.warmup is not None:
        return _digest(canonical_json(workload.warmup(seed, WARMUP_DURATION)))
    raw = workload.scenario(seed, WARMUP_DURATION)
    return workload.extract(raw, WARMUP_DURATION,
                            workload.tail_level)["digest"]


def run_once(workload: Workload, seed: int, scale: float = 1.0) -> dict:
    """Scenario and extraction in-process, untimed (the smoke test).

    Below full scale a run is mostly slow start, so the paper-shape
    checks are left out there; structural checks always apply.
    """
    duration = max(workload.min_duration, workload.duration * scale)
    stats = workload.extract(workload.scenario(seed, duration), duration,
                             workload.tail_level)
    if scale < 1.0:
        stats["checks"] = {name: ok for name, ok in stats["checks"].items()
                           if not name.startswith("shape.")}
    return stats
