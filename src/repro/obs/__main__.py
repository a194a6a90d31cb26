"""Trace inspection CLI: ``python -m repro.obs <cmd> TRACE.jsonl``.

Subcommands::

    summary   TRACE.jsonl                    # counts, flows, time range
    grep      TRACE.jsonl [--type T,...] [--flow F] [--component C]
              [--min-sev warning] [--since S] [--until U] [--limit N]
    timeline  TRACE.jsonl [--flow F] [--types T,...] [--limit N]
    int       TRACE.jsonl [--flow F] [--limit N]   # INT hop timeline +
                                                   # bottleneck attribution

``TRACE.jsonl`` is a bus export (``--trace`` on an experiment, or
:func:`repro.obs.export.write_jsonl`) or a flight-recorder dump — both
use the same record shape.  Exit status: 0 on success, 1 when a filter
matched nothing, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .export import read_jsonl
from .int import attribution
from .trace import SEVERITY_BY_NAME

#: Keys every record carries; everything else is an event field.
_BASE_KEYS = ("t", "type", "sev", "component", "flow")


def _load(path: str) -> List[dict]:
    try:
        return read_jsonl(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro-obs: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _matches(record: dict, args) -> bool:
    if args.types and record.get("type") not in args.types:
        return False
    if args.component is not None \
            and args.component not in str(record.get("component") or ""):
        return False
    if args.flow is not None \
            and args.flow not in str(record.get("flow") or ""):
        return False
    if args.min_sev is not None:
        sev = SEVERITY_BY_NAME.get(str(record.get("sev")), 0)
        if sev < args.min_sev:
            return False
    t = record.get("t", 0.0)
    if args.since is not None and t < args.since:
        return False
    if args.until is not None and t > args.until:
        return False
    return True


def _fields_of(record: dict) -> str:
    parts = []
    for key in sorted(record):
        if key not in _BASE_KEYS:
            parts.append(f"{key}={record[key]}")
    return " ".join(parts)


def _pick_default_flow(records: List[dict]) -> Optional[str]:
    """First flow appearing in the trace (CI-friendly default)."""
    for record in records:
        flow = record.get("flow")
        if flow:
            return str(flow)
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def cmd_summary(args) -> int:
    records = _load(args.trace)
    if not records:
        print("empty trace")
        return 1
    times = [r.get("t", 0.0) for r in records]
    by_type: dict = {}
    flows: dict = {}
    components: set = set()
    for record in records:
        by_type[record.get("type", "?")] = \
            by_type.get(record.get("type", "?"), 0) + 1
        flow = record.get("flow")
        if flow:
            flows[flow] = flows.get(flow, 0) + 1
        if record.get("component"):
            components.add(str(record["component"]))
    print(f"{len(records)} events over "
          f"[{min(times):.6f}s, {max(times):.6f}s] virtual time")
    print(f"{len(flows)} flows, {len(components)} components")
    print("\nevents by type:")
    for type_ in sorted(by_type):
        print(f"  {type_:24s} {by_type[type_]}")
    if flows:
        print("\nbusiest flows:")
        ranked = sorted(flows.items(), key=lambda kv: (-kv[1], kv[0]))
        for flow, count in ranked[:10]:
            print(f"  {flow:40s} {count}")
    return 0


def cmd_grep(args) -> int:
    records = _load(args.trace)
    shown = 0
    for record in records:
        if not _matches(record, args):
            continue
        print(json.dumps(record, sort_keys=True))
        shown += 1
        if args.limit is not None and shown >= args.limit:
            break
    return 0 if shown else 1


def cmd_timeline(args) -> int:
    records = _load(args.trace)
    if args.flow is None:
        args.flow = _pick_default_flow(records)
        if args.flow is None:
            print("repro-obs: trace has no flow-scoped events; "
                  "nothing to render", file=sys.stderr)
            return 1
        print(f"(no --flow given; using first flow {args.flow})")
    shown = 0
    for record in records:
        if not _matches(record, args):
            continue
        component = str(record.get("component") or "-")
        print(f"{record.get('t', 0.0):12.6f}s  {component:20s} "
              f"{record.get('type', '?'):22s} {_fields_of(record)}")
        shown += 1
        if args.limit is not None and shown >= args.limit:
            print(f"... (limited to {args.limit} events)")
            break
    if not shown:
        print(f"repro-obs: no events for flow {args.flow!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_int(args) -> int:
    """Per-flow INT hop timeline plus the bottleneck attribution table."""
    records = [r for r in _load(args.trace)
               if str(r.get("type", "")).startswith("int.")
               and _matches(r, args)]
    if not records:
        print("repro-obs: no int.* events match", file=sys.stderr)
        return 1
    shown = 0
    print("per-flow hop timeline:")
    for record in records:
        flow = str(record.get("flow") or "-")
        if record.get("type") == "int.path_change":
            print(f"{record.get('t', 0.0):12.6f}s  {flow:40s} "
                  f"path -> {record.get('path')}")
        elif record.get("status") == "ok":
            print(f"{record.get('t', 0.0):12.6f}s  {flow:40s} "
                  f"#{record.get('serial', '?'):>4} "
                  f"bottleneck={record.get('bottleneck')} "
                  f"q_max={record.get('q_max_bytes', 0):.0f}B "
                  f"residence={record.get('residence_s', 0.0) * 1e6:.1f}us")
        else:
            print(f"{record.get('t', 0.0):12.6f}s  {flow:40s} "
                  f"degraded: {record.get('status')}")
        shown += 1
        if args.limit is not None and shown >= args.limit:
            print(f"... (limited to {args.limit} events)")
            break
    # Attribution: which hop was the bottleneck, how often, how deep.
    degraded = sum(1 for r in records if r.get("type") == "int.report"
                   and r.get("status") != "ok")
    print("\nbottleneck attribution:")
    print(f"  {'hop':24s} {'reports':>8s} {'share':>7s} "
          f"{'q_max':>10s} {'mean_res':>10s}")
    for hop, entry in attribution(records).items():
        print(f"  {hop:24s} {entry['reports']:8d} {entry['share']:6.1%} "
              f"{entry['q_max_bytes']:9.0f}B "
              f"{entry['mean_residence_us']:8.1f}us")
    if degraded:
        print(f"  ({degraded} degraded report(s) not attributed)")
    return 0


# ---------------------------------------------------------------------------
def _positive_int(text: str) -> int:
    """``--limit``'s type: a count below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", dest="types", default="",
                        help="comma-separated event types to keep")
    parser.add_argument("--flow", help="substring match on the flow id")
    parser.add_argument("--component",
                        help="substring match on the component")
    parser.add_argument("--min-sev", choices=sorted(SEVERITY_BY_NAME),
                        help="minimum severity")
    parser.add_argument("--since", type=float,
                        help="keep events at or after this virtual time")
    parser.add_argument("--until", type=float,
                        help="keep events at or before this virtual time")
    parser.add_argument("--limit", type=_positive_int,
                        help="stop after this many matching events")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect exported repro.obs traces and flight dumps.")
    sub = parser.add_subparsers(dest="command")
    summary = sub.add_parser("summary", help="counts, flows, time range")
    summary.add_argument("trace", help="JSONL trace or flight dump")
    grep = sub.add_parser("grep", help="filter events, print JSONL")
    grep.add_argument("trace", help="JSONL trace or flight dump")
    _add_filters(grep)
    timeline = sub.add_parser(
        "timeline", help="per-flow interleaved event timeline")
    timeline.add_argument("trace", help="JSONL trace or flight dump")
    _add_filters(timeline)
    int_cmd = sub.add_parser(
        "int", help="INT hop timeline + bottleneck attribution table")
    int_cmd.add_argument("trace", help="JSONL trace or flight dump")
    _add_filters(int_cmd)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        if hasattr(args, "types"):
            args.types = {t.strip() for t in args.types.split(",")} - {""}
        if getattr(args, "min_sev", None) is not None:
            args.min_sev = SEVERITY_BY_NAME[args.min_sev]
        if args.command == "summary":
            return cmd_summary(args)
        if args.command == "grep":
            return cmd_grep(args)
        if args.command == "int":
            return cmd_int(args)
        return cmd_timeline(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
