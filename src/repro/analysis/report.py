"""Stable report formatting for ``python -m repro.analysis analyze``.

CI diffs the output between runs, so every format is strictly
deterministic: findings sorted by (path, line, column, code), paths
normalised to forward slashes and made relative to the invocation
directory when possible.  Three renderers:

* :func:`format_report` — the canonical one-finding-per-line text
  report with a fixed summary line;
* :func:`format_json` — a plain list of finding objects, for scripting;
* :func:`format_sarif` — SARIF 2.1.0, for code-scanning upload.
"""

from __future__ import annotations

import json
import os
from typing import List, Sequence

from .rules import CATALOG, Violation


def _display_path(path: str, base: str) -> str:
    try:
        rel = os.path.relpath(path, base)
    except ValueError:  # different drive (Windows)
        rel = path
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")


def _displayed(violations: Sequence[Violation],
               base: str) -> List[Violation]:
    return sorted(
        Violation(path=_display_path(v.path, base), line=v.line,
                  col=v.col, code=v.code, message=v.message)
        for v in violations
    )


def format_report(violations: Sequence[Violation], base: str = ".",
                  tool: str = "repro-lint") -> str:
    """Render findings as the canonical file:line-sorted text report."""
    display = _displayed(violations, base)
    rendered = [v.render() for v in display]
    n = len(display)
    rendered.append(f"{tool}: {n} violation{'s' if n != 1 else ''}")
    return "\n".join(rendered)


def format_json(violations: Sequence[Violation], base: str = ".") -> str:
    """Findings as a JSON array (one object per finding)."""
    rows = [{"path": v.path, "line": v.line, "col": v.col,
             "code": v.code, "message": v.message}
            for v in _displayed(violations, base)]
    return json.dumps(rows, indent=2, sort_keys=True)


def format_sarif(violations: Sequence[Violation], base: str = ".",
                 tool: str = "repro-lint") -> str:
    """Findings as a SARIF 2.1.0 log (GitHub code-scanning format)."""
    display = _displayed(violations, base)
    used = sorted({v.code for v in display})
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool,
                "informationUri":
                    "https://example.invalid/repro-analysis",
                "rules": [{"id": code,
                           "shortDescription":
                               {"text": CATALOG.get(code, code)}}
                          for code in used],
            }},
            "results": [{
                "ruleId": v.code,
                "level": "error",
                "message": {"text": v.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": v.path},
                    "region": {"startLine": v.line,
                               "startColumn": v.col + 1},
                }}],
            } for v in display],
        }],
    }
    return json.dumps(sarif, indent=2, sort_keys=True)
