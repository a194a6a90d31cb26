"""Control-plane write-ahead log.

Snapshots are taken at epoch boundaries, but operators submit commands
*between* boundaries — after the last snapshot was written.  Without a
log, a crash would silently drop those commands and the restored run
would diverge from the uninterrupted one.  The WAL closes that window:

* every submission is appended (and fsynced) to the log **before** it
  reaches the in-memory control plane — shape-rejected commands
  included, because a rejection is a visible side effect too (it lands
  in the command log and on the trace bus);
* each snapshot records the WAL cursor (``wal_pos``) at write time;
* restore loads the snapshot, then re-submits every logged entry at or
  after that cursor, in order.  The control plane is deterministic in
  (state, submission sequence), so the replayed run re-applies exactly
  what the uninterrupted run applied.

Lines are crc32-framed (:func:`repro.control.commands.encode_wal_entry`)
so a torn tail — the crash happened mid-append — is detected and
dropped rather than replayed as garbage.  Entries after a torn line are
ignored too: a torn middle means the file was corrupted at rest, and
replaying around a hole would reorder the submission sequence.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Tuple

from ..control.commands import decode_wal_entry, encode_wal_entry


class WriteAheadLog:
    """Append-only, crc-framed command log backing one durable service."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Torn/corrupt lines dropped at open (observability, not errors).
        self.torn_dropped = 0
        entries = self._scan()
        #: Next position to be assigned (== count of valid entries when
        #: positions are dense, which append() maintains).
        self.pos = entries[-1][0] + 1 if entries else 0
        self._fh = None

    # ------------------------------------------------------------------
    def _scan(self) -> List[Tuple[int, object]]:
        if not self.path.exists():
            return []
        entries: List[Tuple[int, object]] = []
        with self.path.open("r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                decoded = decode_wal_entry(line)
                if decoded is None:
                    # Torn tail (or corruption): everything from here on
                    # is untrusted.
                    self.torn_dropped += 1
                    break
                entries.append(decoded)
        return entries

    def _file(self):
        if self._fh is None or self._fh.closed:
            self._fh = self.path.open("a", encoding="utf-8")
        return self._fh

    # ------------------------------------------------------------------
    def append(self, command: object) -> int:
        """Durably log one submission; returns its position.

        The entry is flushed and fsynced before this returns —
        write-ahead means the log wins races with the crash, not loses
        them.
        """
        pos = self.pos
        fh = self._file()
        fh.write(encode_wal_entry(pos, command))
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
        self.pos = pos + 1
        return pos

    def entries(self, start: int = 0) -> List[Tuple[int, object]]:
        """Valid ``(pos, command)`` entries with ``pos >= start``."""
        return [(pos, cmd) for pos, cmd in self._scan() if pos >= start]

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    # The open file handle must not leak into snapshots: the WAL object
    # itself is never pickled (it belongs to the supervisor, not the
    # service), but keep the contract explicit.
    def __getstate__(self):  # pragma: no cover - guard rail
        raise TypeError("WriteAheadLog is supervisor state; snapshot the "
                        "service, not the log")
