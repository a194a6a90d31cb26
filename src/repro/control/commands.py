"""Control-plane command vocabulary and the tenant policy parser.

A command is a plain-JSON dict (so schedules round-trip through the
runtime's run specs) with at least::

    {"epoch": 2, "op": "set_policy", ...}

``epoch`` is the epoch boundary at or after which it applies; ``op`` is
one of :data:`VALID_OPS`.  Validation is all-or-nothing and happens at
drain time in :class:`repro.control.service.ControlPlane`: a command
either applies to every host it names or is rejected with a reason —
never partially applied.

:func:`parse_policy` turns a command's policy JSON into the
:class:`~repro.core.policy.FlowPolicy` the control plane keeps as
intended state (nothing mutates a ``FlowPolicy`` in place), so the kill
switch can re-apply the exact boot policy rather than guessing from the
datapath.
"""

from __future__ import annotations

import json
import zlib
from typing import Optional, Tuple

from ..core.policy import FlowPolicy

#: Operations the control plane understands (see DESIGN.md §12).
VALID_OPS = ("set_policy", "set_guard", "kill_switch")


class CommandError(ValueError):
    """A malformed or conflicting control command.

    The message is the operator-facing rejection reason; it is recorded
    verbatim in the command log and on the ``control.command`` event.
    """


def parse_policy(raw: object) -> FlowPolicy:
    """Parse and validate a policy object (``{"algorithm", "beta",
    "max_rwnd"}``, each optional); raises :class:`CommandError` with a
    reason."""
    if not isinstance(raw, dict):
        raise CommandError(f"policy must be an object, got {type(raw).__name__}")
    unknown = set(raw) - {"algorithm", "beta", "max_rwnd"}
    if unknown:
        raise CommandError(f"unknown policy field(s) {sorted(unknown)!r}")
    max_rwnd = raw.get("max_rwnd")
    if isinstance(max_rwnd, bool) or (isinstance(max_rwnd, float)
                                      and not max_rwnd.is_integer()):
        raise CommandError(f"invalid policy: max_rwnd must be a whole "
                           f"number of bytes, got {max_rwnd!r}")
    try:
        return FlowPolicy(**raw)
    except (ValueError, TypeError) as exc:
        raise CommandError(f"invalid policy: {exc}") from exc


def encode_wal_entry(pos: int, command: object) -> str:
    """One write-ahead-log line for a submitted command.

    The body is canonical JSON (sorted keys, no whitespace) prefixed by
    its crc32, so replay can tell a torn tail — a crash mid-append —
    from a valid record without trusting the line to be complete.
    """
    body = json.dumps({"pos": pos, "command": command}, sort_keys=True,
                      separators=(",", ":"), allow_nan=True)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}"


def decode_wal_entry(line: str) -> Optional[Tuple[int, object]]:
    """Parse one WAL line; ``None`` for a torn or corrupt line."""
    line = line.rstrip("\n")
    if len(line) < 10 or line[8] != " ":
        return None
    crc_hex, body = line[:8], line[9:]
    try:
        crc = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        entry = json.loads(body)
    except ValueError:
        return None
    if not isinstance(entry, dict) or "pos" not in entry \
            or "command" not in entry:
        return None
    pos = entry["pos"]
    if isinstance(pos, int) and not isinstance(pos, bool) and pos >= 0:
        return pos, entry["command"]
    return None


def command_shape(raw: object) -> tuple:
    """Check the fields every command shares; returns ``(epoch, op)``.

    Shape errors raise :class:`CommandError`; op-specific argument
    validation stays with the control plane's per-op handlers.
    """
    if not isinstance(raw, dict):
        raise CommandError(f"command must be an object, got {type(raw).__name__}")
    epoch = raw.get("epoch")
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        raise CommandError(f"command epoch must be a non-negative int, got {epoch!r}")
    op = raw.get("op")
    if op not in VALID_OPS:
        raise CommandError(f"unknown op {op!r} (valid: {', '.join(VALID_OPS)})")
    return epoch, op
