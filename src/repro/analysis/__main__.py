"""CLI driver: ``python -m repro.analysis analyze [paths]``.

One pass per module runs every code: the per-file rules RL000–RL006, the
cross-file checkers RL101, RL102 and RL104, and RL999 for files that cannot be
parsed.  Exit status: 0 when clean, 1 when violations were found, 2 on
usage or I/O errors.  Reports are stable across runs (sorted by file,
line, column, code) so CI output can be diffed; the module count goes to
stderr so stdout stays the report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .checkers import AnalyzeConfig, analyze_paths
from .report import format_json, format_report, format_sarif
from .rules import CATALOG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repro-specific static analysis for the AC/DC datapath.")
    sub = parser.add_subparsers(dest="command")
    analyze = sub.add_parser(
        "analyze", help="run every rule and checker in one pass")
    analyze.add_argument("paths", nargs="*",
                         help="files or package roots (default: src/)")
    analyze.add_argument("--select", default="",
                         help="comma-separated codes to run (default: "
                              "all; RL000 and RL999 always report)")
    analyze.add_argument("--list-rules", action="store_true",
                         help="print the rule and checker catalogs and exit")
    analyze.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text", help="report format for stdout")
    analyze.add_argument("--sarif", metavar="PATH",
                         help="additionally write a SARIF 2.1.0 log here")
    return parser


def _run_analyze(args) -> int:
    if args.list_rules:
        for code in sorted(CATALOG):
            print(f"{code}  {CATALOG[code]}")
        return 0
    select = tuple(c.strip() for c in args.select.split(",") if c.strip())
    unknown = [c for c in select if c not in CATALOG]
    if unknown:
        print(f"repro-lint: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    violations, stats = analyze_paths(args.paths or ["src/"],
                                      AnalyzeConfig(select=select))
    if args.sarif:
        try:
            with open(args.sarif, "w", encoding="utf-8") as fh:
                fh.write(format_sarif(violations) + "\n")
        except OSError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(format_json(violations))
    elif args.format == "sarif":
        print(format_sarif(violations))
    else:
        print(format_report(violations))
    print(f"repro-lint: {stats.modules} module(s) analyzed", file=sys.stderr)
    return 1 if violations else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        return _run_analyze(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
