"""The datapath flight recorder.

A bounded ring buffer of the last N datapath decisions one vSwitch
made — flow inserts, window rewrites, ECN marks, drops, timeouts,
resurrections, guard transitions.  Its only reader is the runtime
sanitizer, so it is armed exactly when sanitizing, as one of the
vSwitch's taps (``AcdcVswitch.HOOKS``).  It is offered the decisions
the trace bus gets from the other tap,
:class:`~repro.obs.context.VswitchObs`, and keeps them with the same
fields (bar ``component``, the vSwitch's name here) at the bus's
keep-1-in-N rates: the bus's ``config.sample`` when the vSwitch traces,
:data:`~repro.obs.trace.DEFAULT_SAMPLING` otherwise, so per-segment ECN
marks do not crowd the ACK history out of the ring.  The ring counts
its 1-in-N per vSwitch, where the bus counts per type across every
vSwitch of the run, so a dump is *not* the bus's tail: with two
senders on one bus, the ring keeps marks the bus sampled out and skips
marks the bus kept.  Off, the datapath pays one empty-tuple loop per
decision.

On an :class:`~repro.analysis.sanitize.InvariantViolation` the
sanitizer dumps the ring to a JSONL file and attaches the path to the
exception, turning "seed 1729 diverged" into a replayable decision log
readable with ``python -m repro.obs timeline <dump>``.

Dump file names carry the vSwitch name, the process id and a
per-recorder serial number — never a wall-clock stamp (repro-lint
RL003: the only clock in ``src/`` is ``sim.now``, and that goes
*inside* the records).  Names alone cannot be trusted to be unique:
two same-named vSwitches (two services in one process) can dump in the
same pid/serial window, a SIGKILLed run can be resumed under a
recycled pid, and a restored snapshot resets the recorder's serial.
Dumps therefore open their file with ``O_EXCL`` and bump the serial
until creation succeeds — a collision skips to a free name, never
overwrites an earlier dump.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Tuple

from .trace import DEFAULT_SAMPLING, INFO, SEVERITY_NAMES, format_flow

#: Default ring capacity: enough to hold several RTTs of per-ACK
#: decisions for one flow without holding a whole run in memory.
DEFAULT_CAPACITY = 256

#: Directory for dumps; override with ``REPRO_OBS_DIR``.
DEFAULT_DUMP_DIR = ".repro-obs"


class FlightRecorder:
    """Ring buffer of (sim time, type, severity, flow, fields) decisions."""

    def __init__(self, sim, name: str = "vswitch"):
        self.sim = sim
        self.name = name
        self.noted = 0  # decisions ever offered (ring keeps the tail)
        self._serial = 0  # per-recorder dump counter (instance state, so
        #                   it snapshots and restores with the vSwitch)
        self._ring: Deque[Tuple[float, str, int, object, dict]] = deque(
            maxlen=DEFAULT_CAPACITY)
        #: type -> keep 1 in N, as on the bus, counted in ``_seen`` for
        #: this vSwitch alone; the first of a type is always kept.
        self.sample = DEFAULT_SAMPLING
        self._seen: Dict[str, int] = {}  # offers per sampled type

    def _sampled_out(self, type_: str) -> bool:
        n = self.sample.get(type_, 0)
        if n <= 1:
            return False
        count = self._seen.get(type_, 0)
        self._seen[type_] = count + 1
        return count % n != 0

    # -- ring tap (AcdcVswitch.HOOKS) ------------------------------------
    def on_decision(self, type_: str, flow, severity: int,
                    fields: dict) -> None:
        """One datapath decision, as the bus gets it."""
        self.noted += 1
        if not self._sampled_out(type_):
            self._ring.append((self.sim.now, type_, severity, flow, fields))

    def on_advertised(self, entry, pkt, wnd: int, rewritten) -> None:
        """The RWND decision on an ACK (``rewritten`` None: a fabricated
        advertisement, which is no decision), in ``rwnd.rewrite``'s bus
        fields."""
        if isinstance(rewritten, bool):
            self.noted += 1
            if self._sampled_out("rwnd.rewrite"):
                return
            self._ring.append((self.sim.now, "rwnd.rewrite", INFO, entry.key,
                               {"wnd_bytes": wnd, "rewritten": rewritten,
                                "visible_bytes":
                                    pkt.rwnd_field << entry.peer_wscale}))

    def records(self) -> List[dict]:
        """Ring contents as flat dicts, oldest first (trace-record shape,
        so the ``python -m repro.obs`` subcommands read dumps too)."""
        out = []
        for t, type_, severity, flow, fields in self._ring:
            record = {"t": t, "type": type_,
                      "sev": SEVERITY_NAMES.get(severity, str(severity)),
                      "component": self.name, "flow": format_flow(flow)}
            record.update(fields)
            out.append(record)
        return out

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    def dump(self, dir_path=None, tag: str = "") -> str:
        """Write the ring to a JSONL file; returns the path.

        ``dir_path`` defaults to ``$REPRO_OBS_DIR`` or ``.repro-obs``.
        The file is created with ``O_EXCL``; a name collision (same-named
        vSwitch, recycled pid, serial reset by a snapshot restore) bumps
        the serial and retries rather than overwriting evidence.
        """
        if dir_path is None:
            dir_path = os.environ.get("REPRO_OBS_DIR") or DEFAULT_DUMP_DIR
        directory = Path(dir_path)
        directory.mkdir(parents=True, exist_ok=True)
        parts = ["flight", _safe(self.name)]
        if tag:
            parts.append(_safe(tag))
        while True:
            self._serial += 1
            name = "-".join(parts + [f"{os.getpid()}-{self._serial}"])
            path = directory / (name + ".jsonl")
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o644)
            except FileExistsError:
                continue
            break
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record, sort_keys=True, default=str))
                fh.write("\n")
        return str(path)


def _safe(name: str) -> str:
    """File-name-safe rendering of a component name or tag."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "-", str(name)).strip("-")
    return cleaned or "x"
