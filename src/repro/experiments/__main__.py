"""Command-line runner: regenerate any paper experiment by name.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig08
    python -m repro.experiments table1
    python -m repro.experiments fig19 --json
    python -m repro.experiments fig18-19 --seeds 0,1,2,3 --jobs 8 \\
        --cache-dir .repro-cache

``--jobs``/``--cache-dir``/``--seeds`` route the multi-seed experiments
(fig14, fig18-19, fig22, chaos, adversarial) through
:mod:`repro.runtime`: independent (scheme, seed, config) cells fan out
across a process pool, merge deterministically in seed order, and cached
cells are skipped on re-runs.

This is a thin convenience wrapper — the benchmarks under ``benchmarks/``
are the canonical (asserting) way to regenerate the evaluation.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from ..runtime import Runtime, resolve
from . import EXPERIMENTS as REGISTRY

#: The registry with every entry imported: a typo in it fails here, at
#: start-up, whichever experiment was asked for.
EXPERIMENTS = {name: resolve(ref) for name, ref in REGISTRY.items()}


def _supported_params(fn) -> set:
    """Parameter names ``fn`` accepts (empty set if unintrospectable)."""
    try:
        return set(inspect.signature(fn).parameters)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return set()


def _filter_kwargs(kwargs: dict, supported: set) -> dict:
    """Drop kwargs the experiment does not take (e.g. quick, runtime)."""
    return {k: v for k, v in kwargs.items() if k in supported}


def _default(obj):
    """Make experiment results JSON-serialisable."""
    if isinstance(obj, (set, tuple)):
        return list(obj)
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in vars(obj).items()
                if not k.startswith("_")}
    return repr(obj)


def _shorten(value, limit=2000):
    """Truncate giant sample lists for the human-readable dump."""
    if isinstance(value, list) and len(value) > limit:
        return value[:limit] + [f"... ({len(value)} items)"]
    if isinstance(value, dict):
        return {k: _shorten(v, limit) for k, v in value.items()}
    return value


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate AC/DC TCP paper experiments.")
    parser.add_argument("experiment",
                        help="experiment id, or 'list' to enumerate")
    parser.add_argument("--json", action="store_true",
                        help="dump full structured results as JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds",
                        help="comma-separated seed sweep (multi-seed "
                             "experiments only), e.g. --seeds 0,1,2,3")
    parser.add_argument("--jobs", type=int, default=1,
                        help="process-pool width for the experiment "
                             "runtime; 0 means one worker per CPU")
    parser.add_argument("--cache-dir",
                        help="on-disk result cache: completed (scheme, "
                             "seed, config) cells are skipped on re-runs")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale (CI smoke runs); only honoured "
                             "by experiments with a quick mode")
    parser.add_argument("--trace", metavar="PATH",
                        help="run with structured tracing on and export "
                             "the event stream as JSONL to PATH (inspect "
                             "with python -m repro.obs)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    run = EXPERIMENTS.get(args.experiment)
    if run is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: python -m repro.experiments list", file=sys.stderr)
        return 2
    kwargs = {"seed": args.seed}
    if args.quick:
        kwargs["quick"] = True
    supported = _supported_params(run)
    if "runtime" in supported:
        kwargs["runtime"] = Runtime(jobs=args.jobs or None,
                                    cache=args.cache_dir)
    if args.seeds is not None:
        if "seeds" not in supported:
            print(f"{args.experiment!r} does not support --seeds",
                  file=sys.stderr)
            return 2
        kwargs["seeds"] = [int(s) for s in args.seeds.split(",") if s]
    if args.trace is not None:
        if "trace_path" not in supported:
            print(f"{args.experiment!r} does not support --trace",
                  file=sys.stderr)
            return 2
        kwargs["trace_path"] = args.trace
    try:
        result = run(**_filter_kwargs(kwargs, supported))
    except TypeError:
        result = run()
    if args.json:
        json.dump(result, sys.stdout, default=_default)
        print()
    else:
        print(json.dumps(_shorten(result), default=_default, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
