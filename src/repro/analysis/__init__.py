"""Correctness tooling for the AC/DC reproduction.

Two layers, one motivation: the paper's argument (§3.1–3.3) rests on the
vSwitch *exactly* reconstructing and enforcing TCP window state, and the
bug classes that silently corrupt that reconstruction keep recurring —
raw (non-serial) sequence comparisons that break at the 2^32 wrap,
encoded-RWND/wscale rounding errors, and nondeterminism from ad-hoc
RNG or wall-clock use.  This package catches them mechanically:

* **the analyzer** (:mod:`repro.analysis.project`,
  :mod:`repro.analysis.rules`, :mod:`repro.analysis.checkers`) — parses
  each module once and walks it once, placing the per-file rules
  RL000–RL006 and collecting the project model (symbol tables, import
  graph, conservative call graph) the cross-file checkers RL101, RL102
  and RL104 read (determinism taint, trace contract, snapshot
  reachability).  One inline suppression syntax, which requires a
  written reason, covers every code: ``python -m repro.analysis analyze
  src/``.
* **runtime sanitizer** (:mod:`repro.analysis.sanitize`) — opt-in
  invariant probes wrapped around the vSwitch datapath, the simulation
  engine and the switch buffer accounting.  One switch arms all three
  or none: ``REPRO_SANITIZE=1``, or :func:`~repro.analysis.sanitize.enable`
  before the run is built; zero cost when off.  Violations raise
  :class:`~repro.analysis.sanitize.InvariantViolation` carrying the flow
  key, the sim time and the run seed so every failure is replayable.
"""

from importlib import import_module

from .sanitize import (
    DatapathSanitizer,
    InvariantViolation,
    enable,
    is_enabled,
    run_seed,
    set_run_seed,
)

#: The static analyzer, resolved on first use: the datapath imports this
#: package for ``sanitize`` on every run and must not pay for ``ast``
#: walkers it never calls.
_LAZY = {
    "AnalyzeConfig": "checkers", "CHECKER_CATALOG": "rules",
    "analyze_paths": "checkers", "analyze_project": "checkers",
    "LintConfig": "checkers", "lint_paths": "checkers",
    "lint_source": "checkers", "Project": "project",
    "build_project": "project",
    "format_report": "report", "RULE_CATALOG": "rules", "Violation": "rules",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "AnalyzeConfig",
    "CHECKER_CATALOG",
    "DatapathSanitizer",
    "InvariantViolation",
    "LintConfig",
    "Project",
    "RULE_CATALOG",
    "Violation",
    "analyze_paths",
    "analyze_project",
    "build_project",
    "enable",
    "format_report",
    "is_enabled",
    "lint_paths",
    "lint_source",
    "run_seed",
    "set_run_seed",
]
