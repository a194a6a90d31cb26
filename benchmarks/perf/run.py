"""The perf ledger: host time per simulated packet, end to end and by layer.

Two ways to call it (``benchmarks/perf/README.md`` has the full story):

* one workload, as the benchmark driver does::

      python3 benchmarks/perf/run.py --workload dumbbell_acdc --seed 7 \\
          --seconds 10 --trace 0

  measures for about ``--seconds`` and prints, as the last line, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding every
  end-to-end metric of ``BENCHMARK.json`` (``--trace 1``: every per-layer
  metric);

* every workload, for a person::

      python3 benchmarks/perf/run.py --seed 0 [--trace] [--aa] [--record]

  runs interleaved rounds (round *r* runs all eight workloads once),
  prints every metric by name with unit, median, quartiles and *n*, and
  the output checks.  ``--aa`` runs two complete sets and fails if they
  disagree beyond the benchmark's own bounds; ``--record`` writes
  ``benchmarks/perf/ledger.json``.

Every measurement is one fresh child interpreter (``child.py``).  Closed
loop: one simulator process at a time; only ``figure_sweep`` uses two
pool workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
LEDGER_PATH = HERE / "ledger.json"

#: Each run measures this many sub-seeds derived from ``--seed``;
#: repetition *r* uses sub-seed ``r % SUB_SEEDS``.  Every metric is the
#: median over the sub-seeds (always all of them) of each sub-seed's
#: median over its repetitions: simulated metrics repeat exactly per
#: sub-seed, and host-time metrics weigh the sub-seeds alike however many
#: repetitions the host had time for.
SUB_SEEDS = 3
#: Sub-seeds of neighbouring ``--seed`` values must not overlap.
SEED_STRIDE = 64

DEFAULT_ROUNDS = 5
#: Setting up is quick and its time is noisy, so every untraced round
#: sets up this many more times in children that stop at the first
#: ``Simulator.run`` entry; ``setup_s`` is the median over all of them.
EXTRA_SETUPS = 2
CHILD_TIMEOUT_S = 150

TAPS, TAPS_REFERENCE = "dumbbell_acdc_taps", "dumbbell_acdc"


def sub_seed(seed: int, rep: int) -> int:
    return seed * SEED_STRIDE + rep % SUB_SEEDS


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def run_child(workload: str, seed: int, base_seed: int, trace: int,
              setup_only: bool = False) -> dict:
    """One measurement in a fresh interpreter; returns its JSON record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--warmup-seed", str(base_seed),
           "--trace", str(trace), *(["--setup-only"] if setup_only else []),
           "--spawned-at", repr(time.perf_counter())]
    # Own session: on a timeout the child *and* its pool workers go.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child for {workload!r} exited with "
                           f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def collect(names: List[str], seed: int, trace: int,
            enough: Callable[[int, float], bool],
            untraced: Optional[Dict[str, List[dict]]] = None,
            ) -> Dict[str, List[dict]]:
    """Interleaved rounds: round *r* runs every named workload once, on
    sub-seed ``r % SUB_SEEDS``; at least ``SUB_SEEDS`` rounds, then until
    ``enough(rounds done, seconds elapsed)``.

    A traced collection needs untraced wall times on the same sub-seeds
    beside it (for ``trace.overhead_ratio`` and to show tracing changed
    nothing): it takes them from ``untraced``, or runs an untraced child
    next to every traced one, alternating which of the two goes first.
    Either way they are returned under ``"<name>#untraced"``; the extra
    set-ups of untraced rounds under ``"<name>#setup"``.
    """
    reps: Dict[str, List[dict]] = {name: [] for name in names}
    reps.update({f"{name}#setup": [] for name in names})
    if trace:
        reps.update({f"{name}#untraced": list((untraced or {}).get(name, []))
                     for name in names})
    paired = trace and untraced is None
    start = time.perf_counter()
    rounds = 0
    while rounds < SUB_SEEDS or not enough(rounds,
                                           time.perf_counter() - start):
        for name in names:
            sub = sub_seed(seed, rounds)
            kinds = [trace]
            if paired:
                kinds = [1, 0] if rounds % 2 else [0, 1]
            for kind in kinds:
                key = name if kind == trace else f"{name}#untraced"
                reps[key].append(run_child(name, sub, seed, kind))
            reps[f"{name}#setup"].extend(
                run_child(name, sub, seed, 0, setup_only=True)
                for _ in range(0 if trace else EXTRA_SETUPS))
        rounds += 1
    if TAPS in names and TAPS_REFERENCE not in names:
        # The taps check compares against the untapped scenario; one
        # reference run on the first sub-seed is enough.
        reps[f"{TAPS_REFERENCE}#reference"] = [
            run_child(TAPS_REFERENCE, sub_seed(seed, 0), seed, 0)]
    return reps


# ---------------------------------------------------------------------------
# From child records to named metrics
# ---------------------------------------------------------------------------
def _sample(values: List[float], seeds: List[int]) -> dict:
    """The reported ``value`` of one metric, with quartiles and n.

    ``seeds[i]`` is the sub-seed ``values[i]`` was measured on.  The
    value is the median over sub-seeds of each sub-seed's median, so it
    does not depend on which sub-seeds the host had time to repeat.
    """
    by_seed: Dict[int, List[float]] = defaultdict(list)
    for value, seed in zip(values, seeds):
        by_seed[seed].append(value)
    out = {"value": statistics.median(statistics.median(per_seed)
                                      for per_seed in by_seed.values()),
           "n": len(values)}
    if len(values) >= 2:
        out["q1"], _q2, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _by_sub_seed(reps: List[dict]) -> List[dict]:
    """The first record of each sub-seed, in sub-seed order."""
    first: Dict[int, dict] = {}
    for rep in reps:
        first.setdefault(rep["seed"], rep)
    return [first[s] for s in sorted(first)]


def end_to_end_values(rep: dict) -> Dict[str, float]:
    counts, sim = rep["counts"], rep["sim"]
    return {
        "wall_s": rep["wall_s"],
        "pkts_per_s": counts["packets"] / rep["wall_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "events_per_pkt": counts["events"] / counts["packets"],
        "sim_goodput_frac": sim["goodput_frac"],
        "sim_jain": sim["jain"],
        "sim_rtt_p50_us": sim["rtt_p50_us"],
        "sim_rtt_tail_us": sim["rtt_tail_us"],
        "sim_delivered_frac": 1.0 - sim["drop_frac"],
    }


#: Metrics read off the host's clock or memory.  Everything else is
#: simulated or counted and repeats exactly per sub-seed.
HOST_METRICS = {"wall_s", "pkts_per_s", "setup_s", "peak_rss_mb"}


def per_layer_values(rep: dict, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced child record.

    Layers a workload never enters read 0: no span was opened and the
    sweep's record carries no packet-level counts at all.
    """
    import tracer  # needs src/ on the path; see main()
    counts = defaultdict(int, rep["counts"])
    spans = rep["trace"]["spans"]
    layers = tracer.layer_table(rep["trace"])
    # "/pkt" only where packets were traced: the sweep's packets are a
    # proxy and its simulators ran unwrapped in pool workers.
    pkts = counts["packets"] if "Simulator.run" in spans else 0

    def self_us(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0) * 1e6

    def calls(layer: str) -> float:
        return layers.get(layer, {}).get("calls", 0)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_self_us = self_us("sim.run")
    calendar_us = rep["calendar_us_per_event"]
    cells = rep.get("cells", [])
    cell_wall = [c["cell_wall_s"] for c in cells]
    jobs = rep.get("jobs", 1)
    map_total = spans.get("Runtime.map", {}).get("total_s", 0.0)
    return {
        "trace.wall_s": rep["wall_s"],
        "trace.overhead_ratio": rep["wall_s"] / untraced_wall_s,
        "experiments.self_s": self_us(tracer.ROOT) / 1e6,
        "sim.run_self_us_per_pkt": per(run_self_us, pkts),
        "sim.calendar_us_per_event": calendar_us,
        "net.link_handler_us_per_pkt":
            per(run_self_us - counts["events"] * calendar_us, pkts),
        "sim.scheduled_per_pkt": per(counts["scheduled"], pkts),
        "sim.cancelled_frac":
            per(counts["scheduled"] - counts["events"], counts["scheduled"]),
        "sim.heap_compactions": counts["heap_compactions"],
        "net.port_enqueue_us_per_pkt": per(self_us("net.port_enqueue"), pkts),
        "net.port_enqueue_calls_per_pkt": per(calls("net.port_enqueue"), pkts),
        "net.switch_rx_us_per_pkt": per(self_us("net.switch_rx"), pkts),
        "net.host_rx_us_per_pkt": per(self_us("net.host_rx"), pkts),
        "net.host_tx_us_per_pkt": per(self_us("net.host_tx"), pkts),
        "net.marked_frac": per(counts["marked"], pkts),
        "net.drop_frac": per(counts["drops"], pkts + counts["drops"]),
        "core.egress_us_per_call": per(self_us("core.egress"),
                                       calls("core.egress")),
        "core.ingress_us_per_call": per(self_us("core.ingress"),
                                        calls("core.ingress")),
        "core.egress_calls_per_pkt": per(calls("core.egress"), pkts),
        "core.ingress_calls_per_pkt": per(calls("core.ingress"), pkts),
        "core.self_share": per(
            (self_us("core.egress") + self_us("core.ingress")) / 1e6,
            rep["wall_s"]),
        "core.ops_per_pkt": per(counts["ops"], counts["datapath_packets"]),
        "core.fack_frac": per(counts["facks"],
                              counts["facks"] + counts["packs"]),
        "core.flow_entries": counts["flow_entries"],
        "tcp.handle_packet_us_per_call": per(self_us("tcp.handle_packet"),
                                             calls("tcp.handle_packet")),
        "tcp.handle_packet_calls_per_pkt": per(calls("tcp.handle_packet"),
                                               pkts),
        "tcp.retransmitted_bytes": counts["retransmitted_bytes"],
        "tcp.fast_retransmits": counts["fast_retransmits"],
        "obs.tap_us_per_pkt": per(self_us("obs.tap"), pkts),
        "obs.tap_calls_per_pkt": per(calls("obs.tap"), pkts),
        "obs.int_reports_ok": counts["int_reports_ok"],
        "obs.trace_records": counts["trace_records"],
        "fluid.step_us_per_tick": per(self_us("fluid.step"),
                                      calls("fluid.step")),
        "fluid.ticks": counts["fluid_ticks"],
        "runtime.map_self_s": (map_total - sum(cell_wall) / jobs
                               if cells else 0.0),
        "runtime.cell_s_p50": statistics.median(cell_wall) if cells else 0.0,
        "runtime.parallel_efficiency": per(
            sum(c["cell_cpu_s"] for c in cells), jobs * map_total),
        "runtime.cache_hit_s": rep.get("cache_hit_s", 0.0),
    }


def aggregate(values_per_rep: List[Dict[str, float]],
              reps: List[dict]) -> Dict[str, dict]:
    """One sample set per metric over the repetitions of a workload."""
    seeds = [rep["seed"] for rep in reps]
    return {name: _sample([values[name] for values in values_per_rep], seeds)
            for name in values_per_rep[0]}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def run_checks(name: str, reps: Dict[str, List[dict]]) -> Dict[str, int]:
    """Count the output checks of one workload's records.

    * every check the child evaluated (paper shape, taps, sweep);
    * determinism: the warm-up (always on the base seed) has one digest
      across all repetitions, and a repeated sub-seed reproduces its
      digest bit for bit — also between a traced run and the untraced
      run beside it, so tracing provably did not change the simulation;
    * taps: the tapped run's simulated statistics equal the untapped
      run's on the same sub-seed.
    """
    records = reps[name]
    results: List[bool] = [ok for rep in records
                           for ok in rep["checks"].values()]
    results.append(len({rep["warmup_digest"] for rep in records}) == 1)
    first = {rep["seed"]: rep["digest"] for rep in _by_sub_seed(records)}
    results.extend(rep["digest"] == first[rep["seed"]]
                   for rep in records + reps.get(f"{name}#untraced", [])
                   if rep["seed"] in first)
    if name == TAPS:
        reference = (reps.get(TAPS_REFERENCE)
                     or reps[f"{TAPS_REFERENCE}#reference"])
        expected = {rep["seed"]: rep["sim_digest"] for rep in reference}
        results.extend(rep["sim_digest"] == expected[rep["seed"]]
                       for rep in records if rep["seed"] in expected)
    return {"attempted": len(results), "failed": results.count(False)}


def run_digest(records: List[dict]) -> str:
    """One printable digest per workload: its sub-seeds' digests."""
    return "-".join(rep["digest"][:12] for rep in _by_sub_seed(records))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
def summarize(name: str, reps: Dict[str, List[dict]], trace: int) -> dict:
    """Everything known about one workload after a collection."""
    records = reps[name]
    if trace:
        # Each traced repetition against the untraced ones of its sub-seed.
        untraced = reps[f"{name}#untraced"]
        baseline = {seed: statistics.median(
                        rep["wall_s"] for rep in untraced
                        if rep["seed"] == seed)
                    for seed in {rep["seed"] for rep in records}}
        metrics = aggregate(
            [per_layer_values(rep, baseline[rep["seed"]])
             for rep in records], records)
    else:
        metrics = aggregate([end_to_end_values(rep) for rep in records],
                            records)
        # Every set-up is the warm-up's, on the base seed: one pool.
        setups = [rep["setup_s"] for rep in records + reps[f"{name}#setup"]]
        metrics["setup_s"] = _sample(setups, [0] * len(setups))
    return {"metrics": metrics, "checks": run_checks(name, reps),
            "digest": run_digest(records),
            "tail": {"level": records[0]["sim"]["tail_level"],
                     "n": records[0]["sim"]["rtt_n"]}}


def contract_line(summary: dict, spec_metrics: List[dict]) -> str:
    """The driver's result object, restricted to the declared metrics."""
    metrics = {m["name"]: {"value": summary["metrics"][m["name"]]["value"],
                           "unit": m["unit"]} for m in spec_metrics}
    checks = summary["checks"]
    return json.dumps({"correct": checks["failed"] == 0,
                       "attempted": checks["attempted"],
                       "failed": checks["failed"], "metrics": metrics})


def print_table(name: str, summary: dict, spec_metrics: List[dict]) -> None:
    checks = summary["checks"]
    print(f"\n== {name}  checks {checks['attempted'] - checks['failed']}/"
          f"{checks['attempted']} ok  digest {summary['digest']}  "
          f"tail=p{summary['tail']['level']} of n={summary['tail']['n']}")
    for m in spec_metrics:
        s = summary["metrics"][m["name"]]
        spread = (f"  [{s['q1']:.6g} .. {s['q3']:.6g}]" if "q1" in s else "")
        print(f"  {m['name']:<34}{s['value']:>14.6g} {m['unit']:<6}"
              f" n={s['n']}{spread}")


def dump_traces(reps: Dict[str, List[dict]]) -> None:
    from workloads import WORK_DIR  # needs src/ on the path; see main()
    WORK_DIR.mkdir(exist_ok=True)
    for name, records in reps.items():
        traced = [rep for rep in records if rep.get("traced")]
        if traced:
            path = WORK_DIR / f"trace-{name}.json"
            path.write_text(json.dumps(traced[-1]["trace"], indent=1))
            print(f"trace dump: {path.relative_to(ROOT)}", file=sys.stderr)


def compare_sets(a: Dict[str, dict], b: Dict[str, dict],
                 spec: dict) -> int:
    """``--aa``: two sets of the same tree must agree within bounds."""
    worst = 0
    print(f"\n{'workload':<20}{'metric':<22}{'A':>13}{'B':>13}"
          f"{'rel diff':>10}{'bound':>8}")
    for name in a:
        for m in spec["end_to_end"]:
            va = a[name]["metrics"][m["name"]]["value"]
            vb = b[name]["metrics"][m["name"]]["value"]
            diff = abs(va - vb) / abs(va) if va else abs(vb)
            exact = m["name"] not in HOST_METRICS
            bad = diff > (0.0 if exact else m["bound"])
            worst += bad
            print(f"{name:<20}{m['name']:<22}{va:>13.6g}{vb:>13.6g}"
                  f"{diff:>10.4f}{'exact' if exact else m['bound']:>8}"
                  f"{'  DISAGREE' if bad else ''}")
        if a[name]["digest"] != b[name]["digest"]:
            worst += 1
            print(f"{name:<20}digest differs: {a[name]['digest']} vs "
                  f"{b[name]['digest']}")
    return worst


def host_fingerprint() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpus": os.cpu_count()}


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (driver mode); "
                        "default: all, in interleaved rounds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="driver mode: how long to measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="all-workloads mode: untraced rounds")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets and compare them")
    parser.add_argument("--record", action="store_true",
                        help="write the numbers to ledger.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print("perf ledger: needs src/repro and BENCHMARK.json beside "
              "benchmarks/ (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]

    if args.workload:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; one of {names}",
                  file=sys.stderr)
            return 2
        seconds = args.seconds or spec["run_seconds"]
        reps = collect([args.workload], args.seed, args.trace,
                       lambda _rounds, elapsed: elapsed >= seconds)
        summary = summarize(args.workload, reps, args.trace)
        spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            dump_traces(reps)
        print_table(args.workload, summary, spec_metrics)
        print(contract_line(summary, spec_metrics))
        return 0

    def one_set() -> Dict[str, dict]:
        reps = collect(names, args.seed, 0,
                       lambda rounds, _elapsed: rounds >= args.rounds)
        out = {name: summarize(name, reps, 0) for name in names}
        for name in names:
            print_table(name, out[name], spec["end_to_end"])
        if args.trace:
            traced = collect(names, args.seed, 1,
                             lambda _rounds, _elapsed: True, untraced=reps)
            dump_traces(traced)
            for name in names:
                layer = summarize(name, traced, 1)
                print_table(f"{name} (traced)", layer, spec["per_layer"])
                out[name]["per_layer"] = layer["metrics"]
        return out

    first = one_set()
    failed = sum(s["checks"]["failed"] for s in first.values())
    if args.aa:
        failed += compare_sets(first, one_set(), spec)
    if args.record:
        import workloads as wl
        for name, summary in first.items():
            workload = wl.WORKLOADS[name]
            summary["scenario"] = {
                "why": workload.why, "sim_duration_s": workload.duration,
                "params": workload.params}
        LEDGER_PATH.write_text(json.dumps(
            {"seed": args.seed, "rounds": args.rounds,
             "host": host_fingerprint(), "workloads": first},
            indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {LEDGER_PATH.relative_to(ROOT)}")
    print(f"\nchecks failed: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
