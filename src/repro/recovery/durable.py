"""The durable-service supervisor: snapshot, crash, restore, replay.

:class:`DurableService` wraps a :class:`~repro.control.service.Service`
with the two pieces of persistence that make a crash survivable:

* a **checkpoint** of the whole live service at every epoch boundary
  (``checkpoint_every=N`` thins that to every Nth; ``0`` disables
  snapshotting entirely, which is the supervisor's zero-overhead mode);
* a **write-ahead log** of every command submitted through
  :meth:`submit`, so mutations that arrived after the last snapshot
  replay exactly on restore.

Construction is restore-first: pointing a ``DurableService`` at a root
directory that already holds checkpoints resumes the run from the
newest valid snapshot (falling back past corrupt ones) and re-submits
the WAL suffix; pointing it at an empty directory starts fresh.  A
crash *before the first snapshot* is recovered too — the service is
rebuilt from its config and the full WAL is replayed from position 0,
which is why the constructor routes the initial ``schedule`` through
the WAL rather than handing it to the service directly.

Everything the supervisor does is invisible to the run's result: the
service's trace bus, meters and telemetry contain no recovery events
(those go to the supervisor's *own* bus), so a checkpointed-killed-
restored run is byte-identical to an uninterrupted one — the §10
determinism contract extended to process death (DESIGN.md §13).
"""

from __future__ import annotations

import time  # repro-lint: disable-file=RL003,RL101 (snapshot latency is a property of the host, not the run; the tainted stores land in supervisor stats, never in the service result)
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..control.service import Service, ServiceConfig
from ..obs import TraceBus
from .checkpoint import (CheckpointError, CheckpointInfo, checkpoint_path,
                         latest_checkpoint, prune_checkpoints,
                         write_checkpoint)
from .wal import WriteAheadLog

#: Subdirectories of a durable-service root.
CHECKPOINT_DIR = "checkpoints"
WAL_FILE = "wal.jsonl"


@dataclass
class RecoveryStats:
    """Supervisor-side accounting; never part of the service result."""

    snapshots: int = 0
    snapshot_bytes_last: int = 0
    snapshot_bytes_total: int = 0
    snapshot_s_last: float = 0.0
    snapshot_s_total: float = 0.0
    restores: int = 0
    wal_replayed: int = 0
    wal_torn_dropped: int = 0
    checkpoints_pruned: int = 0
    restored_epoch: Optional[int] = None


class DurableService:
    """One durable service run rooted at a directory.

    ``kill`` optionally carries a
    :class:`~repro.faults.injectors.WorkerKill`: the supervisor runs the
    engine up to ``kill.at`` and lets the injector SIGKILL the process
    mid-epoch — without scheduling an engine event, so the interrupted
    run's calendar stays identical to the uninterrupted baseline's.
    """

    def __init__(self, config=None, schedule: Optional[List[dict]] = None,
                 *, root, checkpoint_every: int = 1, keep: int = 3,
                 kill=None):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.checkpoint_every = checkpoint_every
        self.keep = keep
        self.kill = kill
        self.stats = RecoveryStats()
        self.restored_from: Optional[CheckpointInfo] = None
        self.wal = WriteAheadLog(self.root / WAL_FILE)
        self.stats.wal_torn_dropped = self.wal.torn_dropped

        loaded = latest_checkpoint(self.root / CHECKPOINT_DIR)
        if loaded is not None:
            service, info = loaded
            if not isinstance(service, Service):
                raise CheckpointError(
                    f"{info.path}: payload is {type(service).__name__}, "
                    f"not a Service")
            if service.control.submitted != info.wal_pos:
                raise CheckpointError(
                    f"{info.path}: snapshot submission cursor "
                    f"{service.control.submitted} != header wal_pos "
                    f"{info.wal_pos} (mismatched root?)")
            self.service = service
            self.restored_from = info
            self.stats.restores = 1
            self.stats.restored_epoch = info.epoch
            self._bind_bus()
            self.bus.emit("recovery.restore", component="recovery",
                          epoch=info.epoch, wal_pos=info.wal_pos,
                          path=str(info.path))
            self._replay(start=info.wal_pos)
        else:
            if config is None:
                raise CheckpointError(
                    f"{self.root}: no checkpoint to resume and no config "
                    f"to start fresh from")
            if not isinstance(config, ServiceConfig):
                config = ServiceConfig(**config)
            self.service = Service(config)
            self._bind_bus()
            if self.wal.pos > 0:
                # Crashed before the first snapshot: the WAL alone is
                # the submission history; replay it from the beginning.
                self.stats.restores = 1
                self._replay(start=0)
            else:
                for raw in schedule or []:
                    self.submit(raw)

    # ------------------------------------------------------------------
    def _bind_bus(self) -> None:
        """The supervisor's own trace bus: recovery events are stamped
        with the (deterministic) sim clock but recorded *outside* the
        service's trace, keeping the result signature restore-invariant."""
        self.bus = TraceBus(self.service.sim)

    def _replay(self, start: int) -> None:
        entries = self.wal.entries(start=start)
        for _pos, raw in entries:
            self.service.control.submit(raw)
        self.stats.wal_replayed += len(entries)
        if self.service.control.submitted != self.wal.pos:
            raise CheckpointError(
                f"{self.root}: WAL replay left the control plane at "
                f"cursor {self.service.control.submitted}, log is at "
                f"{self.wal.pos}")
        self.bus.emit("recovery.wal_replay", component="recovery",
                      replayed=len(entries), start=start)

    # ------------------------------------------------------------------
    def submit(self, raw: object) -> None:
        """Durably submit one control command (logged before applied)."""
        self.wal.append(raw)
        self.service.control.submit(raw)

    @property
    def epochs_run(self) -> int:
        return self.service.epochs_run

    # ------------------------------------------------------------------
    def advance(self) -> dict:
        """Run one epoch to its boundary, close it, maybe snapshot."""
        service = self.service
        kill = self.kill
        if (kill is not None and not kill.fired()
                and service.sim.now < kill.at <= service.next_epoch_end):
            # Split the epoch at the kill instant.  run(until=t) at an
            # arbitrary t does not perturb the calendar, so a baseline
            # without the kill stays byte-identical.
            service.sim.run(until=kill.at)
            kill.maybe_fire()  # no return when it SIGKILLs
        report = service.run_epoch()
        if (self.checkpoint_every
                and service.epochs_run % self.checkpoint_every == 0):
            self.snapshot()
        return report

    def snapshot(self) -> CheckpointInfo:
        """Write one epoch-boundary checkpoint (atomic, integrity-hashed)."""
        service = self.service
        assert service.control.submitted == self.wal.pos, \
            "control plane and WAL cursors diverged"
        t0 = time.perf_counter()
        info = write_checkpoint(
            checkpoint_path(self.root / CHECKPOINT_DIR, service.epochs_run),
            service, epoch=service.epochs_run, sim_now=service.sim.now,
            wal_pos=self.wal.pos)
        elapsed = time.perf_counter() - t0
        stats = self.stats
        stats.snapshots += 1
        stats.snapshot_bytes_last = info.payload_len
        stats.snapshot_bytes_total += info.payload_len
        stats.snapshot_s_last = elapsed
        stats.snapshot_s_total += elapsed
        stats.checkpoints_pruned += prune_checkpoints(
            self.root / CHECKPOINT_DIR, self.keep)
        self.bus.emit("recovery.snapshot", component="recovery",
                      epoch=info.epoch, bytes=info.payload_len,
                      wal_pos=info.wal_pos, seconds=elapsed)
        return info

    # ------------------------------------------------------------------
    def run(self, epochs: int) -> dict:
        """Run (or finish) up to ``epochs`` total epochs; canonical result.

        Restore-aware: a service resumed at epoch k runs only the
        remaining ``epochs - k``.
        """
        if epochs < 1:
            raise ValueError("at least one epoch")
        while self.service.epochs_run < epochs:
            self.advance()
        return self.result()

    def result(self) -> dict:
        return self.service.result()

    def close(self) -> None:
        self.wal.close()
