"""Trace export: JSONL, lossless.

Records are the flat dicts produced by
:meth:`repro.obs.trace.TraceBus.records` and
:meth:`repro.obs.recorder.FlightRecorder.records`; the writer accepts
any iterable of such dicts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List

def write_jsonl(records: Iterable[dict], path) -> str:
    """One JSON object per line; keys sorted so files diff cleanly."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
    return str(path)


def read_jsonl(path) -> List[dict]:
    """Load a JSONL trace (or flight dump) back into records."""
    records: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

