"""The suppression comments every analyzer code honours.

A reason is **required** — a bare disable does not suppress and is itself
reported as RL000:

* inline, on the flagged line (or a standalone comment on the line
  directly above it)::

      ahead = nxt - una  # repro-lint: disable=RL001 (linear test fixture)

* file-level, anywhere in the file, applying to every line::

      # repro-lint: disable-file=RL001 (guest stack is linear-space)

Multiple codes may be given comma-separated: ``disable=RL001,RL003 (...)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Set

from .rules import Violation

SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<codes>RL\d{3}(?:\s*,\s*RL\d{3})*)"
    r"(?:\s*\((?P<reason>[^)]*)\))?"
)


@dataclass
class Suppressions:
    file_level: Set[str] = field(default_factory=set)
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: Lines holding *only* a suppression comment: a disable there also
    #: covers the following line (for statements too long to annotate).
    standalone: Set[int] = field(default_factory=set)
    malformed: List[Violation] = field(default_factory=list)

    # ------------------------------------------------------------------
    def covers(self, v: Violation) -> bool:
        """True if finding ``v`` is suppressed by this table."""
        if v.code in self.file_level:
            return True
        if v.code in self.by_line.get(v.line, ()):
            return True
        prev = v.line - 1
        return prev in self.standalone and v.code in self.by_line.get(prev, ())

    def apply(self, violations: List[Violation]) -> List[Violation]:
        """Findings surviving suppression, in input order."""
        return [v for v in violations if not self.covers(v)]


def parse_suppressions(source: str, path: str) -> Suppressions:
    """Scan ``source`` for suppression comments.

    Reason-less disables are collected as RL000 violations in
    ``.malformed``; the disable itself is ignored.
    """
    sup = Suppressions()
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = SUPPRESS_RE.search(text)
        if m is None:
            continue
        codes = {c.strip() for c in m.group("codes").split(",")}
        reason = (m.group("reason") or "").strip()
        if not reason:
            sup.malformed.append(Violation(
                path=path, line=lineno, col=max(text.find("#"), 0),
                code="RL000",
                message="suppression is missing its (reason); the disable "
                        "is ignored"))
            continue
        if m.group("scope"):
            sup.file_level |= codes
        else:
            sup.by_line.setdefault(lineno, set()).update(codes)
            if text.lstrip().startswith("#"):
                sup.standalone.add(lineno)
    return sup
