"""Command-line runner: regenerate any paper experiment by name.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig08
    python -m repro.experiments table1
    python -m repro.experiments fig13 --json
    python -m repro.experiments fig18-19 --seeds 0,1,2,3 --jobs 8 \\
        --cache-dir .repro-cache

Every entry is a :class:`~repro.runtime.Experiment` — cells plus a
reducer — and the CLI calls every entry the same way.  So ``--seeds``,
``--jobs`` and ``--cache-dir`` apply to all of them: the entry's
independent (scheme, seed, config) cells fan out across a process pool,
merge deterministically in seed order, and cached cells are skipped on
re-runs.  ``--quick`` applies the reduced scale an entry declares (the
entries without one run at full scale); ``--trace`` works on the entries
that can trace.

This is a thin convenience wrapper — the benchmarks under ``benchmarks/``
are the canonical (asserting) way to regenerate the evaluation.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..runtime import Runtime, resolve
from . import EXPERIMENTS as REGISTRY

#: The registry with every entry imported: a typo in it fails here, at
#: start-up, whichever experiment was asked for.
EXPERIMENTS = {name: resolve(ref) for name, ref in REGISTRY.items()}


def _shorten(value, limit=2000):
    """Truncate giant sample lists for the human-readable dump."""
    if isinstance(value, list) and len(value) > limit:
        return value[:limit] + [f"... ({len(value)} items)"]
    if isinstance(value, dict):
        return {k: _shorten(v, limit) for k, v in value.items()}
    return value


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code (2: usage error)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate AC/DC TCP paper experiments.")
    parser.add_argument("experiment",
                        help="experiment id, or 'list' to enumerate")
    parser.add_argument("--json", action="store_true",
                        help="dump full structured results as JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds",
                        help="comma-separated seed sweep, e.g. 0,1,2,3")
    parser.add_argument("--jobs", type=int, default=1,
                        help="process-pool width for the experiment "
                             "runtime; 0 means one worker per CPU")
    parser.add_argument("--cache-dir",
                        help="on-disk result cache: completed (scheme, "
                             "seed, config) cells are skipped on re-runs")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale (CI smoke runs); entries "
                             "without a quick mode run at full scale")
    parser.add_argument("--trace", metavar="PATH",
                        help="run with structured tracing on and export "
                             "the event stream as JSONL to PATH (inspect "
                             "with python -m repro.obs)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    run = EXPERIMENTS.get(args.experiment)
    if run is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: python -m repro.experiments list", file=sys.stderr)
        return 2
    if args.trace is not None and not run.traces:
        print(f"{args.experiment!r} does not support --trace",
              file=sys.stderr)
        return 2
    seeds = (None if args.seeds is None
             else [int(s) for s in args.seeds.split(",") if s])
    result = run(seed=args.seed, seeds=seeds, quick=args.quick,
                 trace_path=args.trace,
                 runtime=Runtime(jobs=args.jobs or None,
                                 cache=args.cache_dir))
    if args.json:
        json.dump(result, sys.stdout)
        print()
    else:
        print(json.dumps(_shorten(result), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
