"""Integrity-checked snapshot files.

A checkpoint is one file::

    REPRO-CKPT 1\n
    <header JSON>\n
    <pickle payload>

The header is canonical JSON carrying the format version, the epoch and
simulated time the snapshot was taken at, the write-ahead-log cursor
(``wal_pos``: commands submitted before the snapshot are *inside* the
pickle; everything at or after the cursor must be replayed), and the
payload's length and sha256.  Readers verify both before unpickling, so
a torn or bit-rotted snapshot is a :class:`CheckpointError`, never a
silently-wrong resume.

Writes are atomic (``O_EXCL`` temp file + ``os.replace`` + fsync), the
same discipline as :class:`repro.runtime.cache.ResultCache`: a crash
mid-snapshot leaves the previous checkpoint intact and at worst a stray
temp file, and :func:`latest_checkpoint` simply falls back to the newest
snapshot that passes its integrity check.

The payload is a :mod:`pickle` of the live object graph.  That is a
deliberate trade (DESIGN.md §13): the simulation is a closed,
single-process graph of plain-Python objects, every scheduled callback
is a bound method or :func:`functools.partial` (never a lambda — that is
enforced by construction in the datapath and checked by the recovery
tests), and ``random.Random`` pickles its exact Mersenne Twister
position.  What pickle restores is therefore *the run itself*, which is
what makes byte-identical resume provable rather than aspirational.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

MAGIC = b"REPRO-CKPT 1\n"

#: Bump on incompatible snapshot-format changes; a reader refuses the
#: payload of a version it does not understand.  Version 2: the
#: simulator's calendar holds ``(time, seq, fn, args)`` entries, not
#: ``(time, seq, Event)``.  Version 3: a faulted host holds its fault
#: chain (``Host.fault_chain``) and its real vSwitch, not a wrapper.
#: Version 4: trace channels hold pending batches and a shared sampler
#: cell, INT echoes are tuples, and an empty histogram holds ±inf
#: extremes.  Version 5: a port's obs tap holds only its histogram, an
#: INT stamper neither an EWMA gain nor a hop bound, and a flight ring
#: no capacity.  Version 6: an AC/DC config holds five fields, a flow
#: table neither a GC interval nor an idle timeout, a policer no slack,
#: a guest connection no RTOmin, and an INT view neither a last queue
#: sample nor an update time.  Version 7: a host holds no transmit
#: jitter, a WRED marker no ramp factor and a shared buffer no DT alpha.
FORMAT_VERSION = 7

_CKPT_NAME = re.compile(r"^epoch-(\d{8})\.ckpt$")


class CheckpointError(RuntimeError):
    """A checkpoint that is missing, torn, corrupt, or incompatible."""


@dataclass(frozen=True)
class CheckpointInfo:
    """Parsed checkpoint header (everything but the payload)."""

    version: int
    epoch: int
    sim_now: float
    wal_pos: int
    payload_len: int
    payload_sha256: str
    path: Optional[str] = None

    def to_json(self) -> dict:
        return {"version": self.version, "epoch": self.epoch,
                "sim_now": self.sim_now, "wal_pos": self.wal_pos,
                "payload_len": self.payload_len,
                "payload_sha256": self.payload_sha256}


def checkpoint_path(root, epoch: int) -> Path:
    """Canonical snapshot file name for an epoch boundary."""
    return Path(root) / f"epoch-{epoch:08d}.ckpt"


def write_checkpoint(path, obj: Any, *, epoch: int, sim_now: float,
                     wal_pos: int) -> CheckpointInfo:
    """Snapshot ``obj`` to ``path`` atomically; returns the header info."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    info = CheckpointInfo(
        version=FORMAT_VERSION, epoch=epoch, sim_now=sim_now,
        wal_pos=wal_pos, payload_len=len(payload),
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        path=str(path))
    header = json.dumps(info.to_json(), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header)
            fh.write(b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)
    return info


def read_header(path) -> CheckpointInfo:
    """Parse and validate a checkpoint's header (cheap: no unpickling)."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def _read_header(fh: io.BufferedReader, path) -> Tuple[CheckpointInfo, bytes]:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic (not a checkpoint?)")
    header_line = fh.readline()
    try:
        raw = json.loads(header_line.decode("utf-8"))
        info = CheckpointInfo(path=str(path), **raw)
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: unparseable header: {exc}") from exc
    if info.version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {info.version} (this reader "
            f"understands {FORMAT_VERSION})")
    return info, header_line


def read_checkpoint(path) -> Tuple[Any, CheckpointInfo]:
    """Load a checkpoint; raises :class:`CheckpointError` unless the
    payload length and digest both verify."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    with fh:
        info, _ = _read_header(fh, path)
        payload = fh.read()
    if len(payload) != info.payload_len:
        raise CheckpointError(
            f"{path}: torn payload ({len(payload)} bytes, header says "
            f"{info.payload_len})")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != info.payload_sha256:
        raise CheckpointError(f"{path}: payload digest mismatch")
    try:
        obj = pickle.loads(payload)
    except Exception as exc:  # unpicklable despite a valid digest
        raise CheckpointError(f"{path}: unpicklable payload: {exc}") from exc
    return obj, info


def list_checkpoints(root) -> List[Path]:
    """Snapshot files under ``root``, newest epoch first."""
    root = Path(root)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        m = _CKPT_NAME.match(entry.name)
        if m is not None:
            found.append((int(m.group(1)), entry))
    return [p for _e, p in sorted(found, reverse=True)]


def latest_checkpoint(root) -> Optional[Tuple[Any, CheckpointInfo]]:
    """Load the newest checkpoint under ``root`` that passes integrity.

    A corrupt newest snapshot (e.g. the process died mid-``os.replace``
    on a filesystem without atomic rename) falls back to the next
    oldest; returns ``None`` when nothing under ``root`` is loadable.
    """
    for path in list_checkpoints(root):
        try:
            return read_checkpoint(path)
        except CheckpointError:
            continue
    return None


def prune_checkpoints(root, keep: int) -> int:
    """Delete all but the ``keep`` newest snapshots; returns count removed."""
    if keep < 1:
        raise ValueError("must keep at least one checkpoint")
    removed = 0
    for path in list_checkpoints(root)[keep:]:
        path.unlink(missing_ok=True)
        removed += 1
    return removed
