"""Control/recovery interplay: mutated state must survive snapshot/restore.

A checkpoint lands *between mutations* whenever a service is snapshotted
after a guard reload and a policy migration but before a queued kill
switch fires.  The state at risk is the intended per-host policy, each
guard's live thresholds, the migrated flows' vSwitch CC state and the
kill switch still waiting in the queue — exactly what a naive recovery
design would lose.  These tests restore through the full
:class:`~repro.recovery.DurableService` path and compare against the
same run executed uninterrupted.
"""

import dataclasses

from repro.control import Service, ServiceConfig
from repro.core import FlowPolicy
from repro.recovery import DurableService
from repro.runtime.spec import canonical_json

CONFIG = dict(n_hosts=4, epoch_s=0.01, arrival_rate_hz=400.0, peers=2,
              seed=7, guard=True)
#: Guard reload at epoch 0, algorithm-swap migration at epoch 1, and a
#: kill switch still pending at the epoch-2 snapshot.
SCHEDULE = [
    {"epoch": 0, "op": "set_guard",
     "params": {"clean_windows": 9, "suspect_violation_rate": 0.1}},
    {"epoch": 1, "op": "set_policy", "hosts": ["h2", "h4"],
     "policy": {"algorithm": "reno"}},
    {"epoch": 3, "op": "kill_switch"},
]
EPOCHS = 5


def interrupted(tmp_path) -> DurableService:
    """A supervisor killed after epochs 0–1 and restored from disk."""
    victim = DurableService(config=CONFIG, schedule=SCHEDULE, root=tmp_path)
    victim.advance()
    victim.advance()  # snapshot at epoch 2: both mutations in, kill pending
    victim.close()
    return DurableService(root=tmp_path)


def test_restore_between_migration_and_kill_switch_is_byte_identical(
        tmp_path):
    baseline = Service(ServiceConfig(**CONFIG), schedule=SCHEDULE).run(EPOCHS)
    resumed = interrupted(tmp_path)
    result = resumed.run(EPOCHS)
    resumed.close()
    assert canonical_json(result) == canonical_json(baseline)
    assert result["counters"]["migrations"] > 0
    assert [c["status"] for c in result["commands"]] == ["applied"] * 3


def test_restored_service_keeps_mutations_and_kill_switch_reverts(tmp_path):
    resumed = interrupted(tmp_path)
    service = resumed.service
    assert service.control.intended["h2"].algorithm == "reno"
    assert service.vswitches["h4"].policy.default.algorithm == "reno"
    assert all(g.config.clean_windows == 9 for g in service.guards.values())

    result = resumed.run(EPOCHS)
    resumed.close()
    boot = service.config.guard_config()
    assert all(p == dataclasses.asdict(FlowPolicy())
               for p in result["policies"].values())
    assert all(g.config.clean_windows == boot.clean_windows
               for g in resumed.service.guards.values())
