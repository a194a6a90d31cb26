"""On-disk result cache keyed by run-spec content hashes.

One JSON file per completed run, named ``<sha256>.json`` and holding both
the spec description and its canonicalized result, so entries are
self-describing (a human can ``cat`` one to see what produced it).  Writes
go through a temp file + ``os.replace`` so a crashed or parallel writer
can never leave a half-written entry behind; unreadable entries are
treated as misses and overwritten.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Tuple

from .spec import canonical_json


class ResultCache:
    """Directory of completed run results, addressed by content hash."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries encountered: the runtime counts them in
        #: ``RuntimeStats.cache_corrupt`` so a torn cache is visible, not
        #: silently absorbed as rerun time.
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, result)``."""
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
            return True, entry["result"]
        except FileNotFoundError:
            return False, None
        except (OSError, ValueError, KeyError):
            # Torn/corrupt entry: behave as a miss, the rerun overwrites
            # it — but count it so the miss is observable.
            self.corrupt += 1
            return False, None

    def put(self, key: str, spec: Dict[str, Any], result: Any) -> None:
        """Persist one completed run atomically.

        The temp file is created with ``O_EXCL``, so two writers can
        never interleave bytes; losing the creation race to a concurrent
        runtime computing the same key is *benign* (content-addressed
        entries are equivalent): the loser returns without writing.
        """
        path = self._path(key)
        # Serialize first: a TypeError (non-JSON result — something a
        # cache hit couldn't return) must not leave a temp file behind.
        payload = canonical_json({"spec": spec, "result": result})
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            # A concurrent writer (same pid namespace, e.g. another
            # thread, or a stale temp from a crashed twin) owns the temp:
            # yield — the winner's entry answers future gets.
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - crash-path tidy-up
                tmp.unlink(missing_ok=True)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

