"""One measurement in a fresh interpreter: import, warm up, time, report.

``run.py`` spawns this once per repetition so every timed run starts
from the same state (empty caches, no heap left over from a previous
scenario) and so ``setup_s`` and ``peak_rss_mb`` mean what a user
starting the program sees.  Prints exactly one JSON object on stdout.

Protocol inside the child:

1. import ``repro.experiments`` and the workload table;
2. put the timestamp shim on ``Simulator.run`` (class level, present in
   every run, traced or not) — ``setup_s`` ends at its first entry;
3. with ``--trace 1`` install the span wrappers (``tracer.py``);
4. untimed warm-up: the same scenario for 0.02 simulated seconds;
5. the timed scenario call; then, with the clock stopped, extraction,
   output checks, and (traced only) the calendar calibration drive.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: Interleaved no-op chains of the calibration drive (as BENCH_ENGINE's
#: event-throughput test): the calendar holds this many events at once.
CALIBRATION_CHAINS = 32


class _SetupDone(Exception):
    """Raised by the shim of a ``--setup-only`` child at the first run."""


def _install_run_shim(log_fd: int, setup_only: bool = False):
    """Log entry time and exit event count of every ``Simulator.run``.

    Lines go to an O_APPEND file, not to memory, because the sweep's
    simulators run in forked pool workers: they inherit the descriptor,
    and a single small ``write`` is atomic.
    """
    from repro.sim import Simulator
    original = Simulator.run
    clock, write = time.perf_counter, os.write

    def run(self, until=None, max_events=None):
        write(log_fd, b'{"in": %r}\n' % clock())
        if setup_only:
            raise _SetupDone
        try:
            return original(self, until, max_events)
        finally:
            write(log_fd, b'{"events": %d}\n' % self.events_processed)

    Simulator.run = run


def _install_cell_log(log_fd: int):
    """Traced sweep only: log wall and CPU time of every pool cell."""
    from repro.runtime import RunSpec
    original = RunSpec.execute

    def execute(self):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return original(self)
        finally:
            os.write(log_fd, b'{"cell_wall_s": %r, "cell_cpu_s": %r}\n' % (
                time.perf_counter() - wall, time.process_time() - cpu))

    RunSpec.execute = execute


def _peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this interpreter (and its pool workers).

    ``VmHWM``, not ``ru_maxrss``: across fork+exec the latter starts at
    the *parent's* resident size, so a harness that has grown would leak
    into every child's reading.  Forked pool workers never exec, so for
    them ``RUSAGE_CHILDREN`` is sound.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kib = next(int(line.split()[1]) for line in fh
                        if line.startswith("VmHWM:"))
    if with_children:
        peak_kib = max(peak_kib,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def _read_log(path: Path, start: int = 0) -> list:
    with path.open("rb") as fh:
        fh.seek(start)
        return [json.loads(line) for line in fh]


def _calendar_us_per_event(events: int) -> float:
    """Host cost of one calendar round trip (push, pop, dispatch): the
    run's event count replayed as no-op chains on a bare simulator."""
    from repro.sim import Simulator
    sim = Simulator()
    per_chain = max(1, events // CALIBRATION_CHAINS)

    def tick(chain: int, remaining: int) -> None:
        if remaining:
            sim.schedule(1e-6 * (chain + 1), tick, chain, remaining - 1)

    for chain in range(CALIBRATION_CHAINS):
        sim.schedule(0.0, tick, chain, per_chain - 1)
    start = time.perf_counter()
    sim.run()
    return (time.perf_counter() - start) / sim.events_processed * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the timed run")
    parser.add_argument("--warmup-seed", type=int, required=True,
                        help="seed of the warm-up (the run's base seed)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first Simulator.run entry and "
                             "report only setup_s")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's perf_counter() just before spawning")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import repro.experiments  # noqa: F401  (what a user's first import costs)
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    wl.WORK_DIR.mkdir(exist_ok=True)
    log_path = wl.WORK_DIR / f"child-{os.getpid()}.log"
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        return _measure(args, wl, workload, log_path, log_fd)
    finally:
        os.close(log_fd)
        log_path.unlink(missing_ok=True)


def _first_run_entry(log_path: Path) -> float:
    return next(e["in"] for e in _read_log(log_path) if "in" in e)


def _measure(args, wl, workload, log_path: Path, log_fd: int) -> int:
    _install_run_shim(log_fd, setup_only=args.setup_only)
    if args.setup_only:
        try:
            wl.warm_up(workload, args.warmup_seed)
        except _SetupDone:
            pass
        print(json.dumps(
            {"setup_s": _first_run_entry(log_path) - args.spawned_at}))
        return 0
    tracer = None
    scenario = workload.scenario
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        if workload.packet_level:
            tracer.install(tr.PACKET_TARGETS)
        else:
            tracer.install(tr.RUNTIME_TARGETS)
            _install_cell_log(log_fd)
        scenario = tracer.wrap(tr.ROOT, scenario)

    warmup_digest = wl.warm_up(workload, args.warmup_seed)
    gc.collect()
    if tracer is not None:
        tracer.reset()
    log_mark = log_path.stat().st_size

    duration = workload.duration
    start = time.perf_counter()
    raw = scenario(args.seed, duration)
    wall_s = time.perf_counter() - start

    if tracer is not None:
        tracer.uninstall()
    stats = workload.extract(raw, duration, workload.tail_level)
    timed_log = _read_log(log_path, log_mark)
    counts = stats["counts"]
    cells = [e for e in timed_log if "cell_wall_s" in e]
    if not workload.packet_level:
        # The sweep's simulators ran in pool workers: their event counts
        # come from the shim log, not from a Simulator we hold.  Workers
        # inherit the shim and the descriptor by fork only; under another
        # start method they would log nothing, and that must not pass for
        # zero events per packet.
        runs = [e["events"] for e in timed_log if "events" in e]
        counts["events"] = sum(runs)
        stats["checks"]["sweep.runs_logged"] = (
            len(runs) == counts["cells"] and all(runs))
        if tracer is not None:
            stats["checks"]["sweep.cells_logged"] = (
                len(cells) == counts["cells"])
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "duration": duration,
        "traced": bool(args.trace),
        "wall_s": wall_s,
        "setup_s": _first_run_entry(log_path) - args.spawned_at,
        "peak_rss_mb": _peak_rss_mb(
            with_children=not workload.packet_level),
        "warmup_digest": warmup_digest,
        **stats,
    }
    if tracer is not None:
        report = tracer.report()
        out["trace"] = report
        out["cells"] = cells
        out["calendar_us_per_event"] = (
            _calendar_us_per_event(counts["events"])
            if workload.packet_level else 0.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
