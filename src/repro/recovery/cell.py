"""The durable service cell: a pool-runnable, resumable unit of work.

:func:`durable_service_cell` is a module-level callable in
:class:`~repro.runtime.spec.RunSpec` shape (plain-JSON kwargs), so the
experiment runtime can fan durable service runs across its process pool
like any other cell.  What makes it *durable* is where it keeps state:
each cell derives a directory under ``recovery_dir`` from the sha256 of
its canonical-JSON identity, and a retried execution of the same cell —
after the pool detected a dead worker — finds the previous incarnation's
checkpoints there and resumes instead of starting over.  A SIGKILLed
worker costs one epoch of progress, not the whole cell.  The plain,
uninterruptible run it must equal byte for byte is
:func:`repro.control.service.service_cell`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import List, Optional

from ..runtime.spec import canonical_json
from .durable import DurableService


def _cell_ident(config: dict, schedule, epochs: int,
                checkpoint_every: int, kill) -> str:
    """Stable identity hash of everything that defines this cell's run."""
    blob = canonical_json({
        "config": config,
        "schedule": schedule or [],
        "epochs": epochs,
        "checkpoint_every": checkpoint_every,
        "kill": kill,
    }).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def durable_service_cell(config: dict,
                         schedule: Optional[List[dict]] = None,
                         epochs: int = 6, *, recovery_dir: str,
                         checkpoint_every: int = 1,
                         kill: Optional[dict] = None) -> dict:
    """Run (or resume) one durable service run; returns the service result.

    ``kill``, when set, is a plain-JSON description of a
    :class:`~repro.faults.injectors.WorkerKill`: ``{"at": <sim time>}``
    plus an optional ``"sentinel"`` path (defaults to a file inside the
    cell's own recovery directory, which is exactly the fire-once scope
    a retried cell needs).
    """
    root = (Path(recovery_dir)
            / _cell_ident(config, schedule, epochs, checkpoint_every, kill))
    kill_fault = None
    if kill is not None:
        from ..faults.injectors import WorkerKill
        sentinel = kill.get("sentinel", root / "kill.sentinel")
        kill_fault = WorkerKill(at=kill["at"], sentinel=sentinel)

    supervisor = DurableService(
        config=config, schedule=schedule, root=root,
        checkpoint_every=checkpoint_every, kill=kill_fault)
    try:
        return supervisor.run(epochs)
    finally:
        supervisor.close()
