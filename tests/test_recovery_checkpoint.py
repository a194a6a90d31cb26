"""Checkpoint/restore: snapshot files, the WAL, and byte-identical resume.

The acceptance oracle for repro.recovery (DESIGN.md §13): a service run
that is checkpointed, killed and restored must produce a result —
meters, telemetry, trace signature — byte-identical to the same run
executed uninterrupted.  SIGKILL is delivered for real, in a child
process, so nothing politely flushes on the way down.
"""

import json
import os
import pickle
import signal
import subprocess
import sys

import pytest

from repro.control.commands import decode_wal_entry, encode_wal_entry
from repro.control.service import Service, ServiceConfig
from repro.recovery import (CheckpointError, DurableService, WriteAheadLog,
                            latest_checkpoint, list_checkpoints,
                            read_checkpoint, write_checkpoint)
from repro.recovery.checkpoint import (FORMAT_VERSION, checkpoint_path,
                                      prune_checkpoints)
from repro.runtime.spec import RunSpec, canonical_json
from repro.sim.engine import SimulationError, Simulator

CONFIG = dict(n_hosts=4, epoch_s=0.01, arrival_rate_hz=400.0,
              msg_sizes=[16_384, 65_536], msg_weights=[3, 1],
              peers=2, seed=5, guard=True)
SCHEDULE = [
    {"epoch": 1, "op": "set_policy", "hosts": ["h1"],
     "policy": {"max_rwnd": 2920}},
    {"epoch": 2, "op": "set_policy", "hosts": ["h2"],
     "policy": {"algorithm": "reno"}},
]


def canon(result) -> str:
    return canonical_json(result)


def baseline(epochs=4) -> dict:
    return RunSpec("repro.control.service:service_cell",
                   dict(config=CONFIG, schedule=SCHEDULE,
                        epochs=epochs)).execute()


# ---------------------------------------------------------------------------
# Snapshot file format
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    path = checkpoint_path(tmp_path, 3)
    obj = {"heap": [1, 2, 3], "now": 0.25}
    info = write_checkpoint(path, obj, epoch=3, sim_now=0.25, wal_pos=7)
    loaded, read_info = read_checkpoint(path)
    assert loaded == obj
    assert read_info.epoch == 3
    assert read_info.wal_pos == 7
    assert read_info.payload_sha256 == info.payload_sha256


def test_truncated_payload_is_detected(tmp_path):
    path = checkpoint_path(tmp_path, 0)
    write_checkpoint(path, list(range(100)), epoch=0, sim_now=0.0, wal_pos=0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CheckpointError, match="torn payload"):
        read_checkpoint(path)


def test_bitflip_is_detected(tmp_path):
    path = checkpoint_path(tmp_path, 0)
    write_checkpoint(path, list(range(100)), epoch=0, sim_now=0.0, wal_pos=0)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        read_checkpoint(path)


def test_bad_magic_is_detected(tmp_path):
    path = tmp_path / "epoch-00000000.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError, match="bad magic"):
        read_checkpoint(path)


UNPICKLED = []


def _unpickled() -> None:
    UNPICKLED.append(True)


class _Tripwire:
    """Records it if a payload holding it is ever unpickled."""

    def __reduce__(self):
        return _unpickled, ()


#: What each older format pickles in a shape this reader no longer has.
OLD_FORMATS = {
    1: "the calendar as ``(time, seq, Event)`` entries",
    3: "trace channels, INT echoes and histograms in their old shapes",
    4: "port taps with an occupancy channel, INT stampers with their own "
       "EWMA and hop bound, and flight rings with a capacity",
    5: "an eleven-field AC/DC config, a flow table with its GC knobs, a "
       "policer with its slack, a guest connection with its RTOmin and an "
       "INT view with its last queue sample and update time",
    6: "a host with its transmit jitter, a WRED marker with its ramp "
       "factor and a shared buffer with its DT alpha",
    7: "periodic timers that add their interval to the clock, message "
       "streams with their peer and options, probe apps with a message "
       "size and reordering faults with a hold time",
}


@pytest.mark.parametrize("version", sorted(OLD_FORMATS))
def test_old_version_checkpoint_is_refused_unread(tmp_path, version):
    """An older payload (see :data:`OLD_FORMATS`) is refused by the version
    check before any unpickling, so it can never become a broken heap or
    a half-shaped object in a restored run."""
    path = checkpoint_path(tmp_path, 0)
    write_checkpoint(path, {"_heap": [(0.5, 1, _Tripwire())]},
                     epoch=0, sim_now=0.0, wal_pos=0)
    raw = path.read_bytes()
    current = f'"version":{FORMAT_VERSION}'.encode()
    assert FORMAT_VERSION == 8 and raw.count(current) == 1
    path.write_bytes(raw.replace(current, f'"version":{version}'.encode()))
    with pytest.raises(CheckpointError, match=f"format version {version}"):
        read_checkpoint(path)
    assert latest_checkpoint(tmp_path) is None
    assert UNPICKLED == []


def test_latest_falls_back_past_corrupt_newest(tmp_path):
    write_checkpoint(checkpoint_path(tmp_path, 1), "old",
                     epoch=1, sim_now=0.01, wal_pos=1)
    newest = checkpoint_path(tmp_path, 2)
    write_checkpoint(newest, "new", epoch=2, sim_now=0.02, wal_pos=2)
    newest.write_bytes(newest.read_bytes()[:-4])  # tear it
    obj, info = latest_checkpoint(tmp_path)
    assert obj == "old" and info.epoch == 1


def test_latest_of_empty_dir_is_none(tmp_path):
    assert latest_checkpoints_none(tmp_path)


def latest_checkpoints_none(tmp_path):
    return latest_checkpoint(tmp_path) is None \
        and latest_checkpoint(tmp_path / "missing") is None


def test_prune_keeps_newest(tmp_path):
    for epoch in range(5):
        write_checkpoint(checkpoint_path(tmp_path, epoch), epoch,
                         epoch=epoch, sim_now=0.0, wal_pos=0)
    assert prune_checkpoints(tmp_path, keep=2) == 3
    remaining = list_checkpoints(tmp_path)
    assert [p.name for p in remaining] == ["epoch-00000004.ckpt",
                                           "epoch-00000003.ckpt"]


# ---------------------------------------------------------------------------
# WAL framing and replay
# ---------------------------------------------------------------------------

def test_wal_entry_codec_roundtrip():
    cmd = {"epoch": 3, "op": "set_policy", "policy": {"max_rwnd": 1460}}
    line = encode_wal_entry(5, cmd)
    assert decode_wal_entry(line) == (5, cmd)


@pytest.mark.parametrize("mangle", [
    lambda line: line[:-3],                      # torn mid-body
    lambda line: "deadbeef" + line[8:],          # crc mismatch
    lambda line: line[:9],                       # no body at all
    lambda line: "zz",                           # not even a frame
    lambda line: line[:9] + "{not json",         # crc won't match either
])
def test_wal_entry_corruption_decodes_to_none(mangle):
    line = encode_wal_entry(0, {"op": "noop"})
    assert decode_wal_entry(mangle(line)) is None


def test_wal_append_scan_roundtrip(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.jsonl")
    assert wal.pos == 0
    assert wal.append({"op": "a"}) == 0
    assert wal.append({"op": "b"}) == 1
    wal.close()
    reopened = WriteAheadLog(tmp_path / "wal.jsonl")
    assert reopened.pos == 2
    assert reopened.entries() == [(0, {"op": "a"}), (1, {"op": "b"})]
    assert reopened.entries(start=1) == [(1, {"op": "b"})]
    reopened.close()


def test_wal_torn_tail_is_dropped(tmp_path):
    path = tmp_path / "wal.jsonl"
    wal = WriteAheadLog(path)
    wal.append({"op": "a"})
    wal.append({"op": "b"})
    wal.close()
    with path.open("a", encoding="utf-8") as fh:
        fh.write(encode_wal_entry(2, {"op": "c"})[:-5])  # crash mid-append
    reopened = WriteAheadLog(path)
    assert reopened.pos == 2  # the torn entry does not exist
    assert reopened.torn_dropped == 1
    assert [cmd["op"] for _p, cmd in reopened.entries()] == ["a", "b"]
    reopened.close()


def test_wal_refuses_to_be_pickled(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.jsonl")
    with pytest.raises(TypeError, match="supervisor state"):
        pickle.dumps(wal)
    wal.close()


# ---------------------------------------------------------------------------
# Engine guard
# ---------------------------------------------------------------------------

def test_simulator_refuses_mid_run_pickle():
    sim = Simulator()
    captured = {}

    def snap():
        try:
            pickle.dumps(sim)
        except SimulationError as exc:
            captured["error"] = exc

    sim.schedule(0.001, snap)
    sim.run(until=0.002)
    assert "error" in captured, "pickling inside run() must raise"
    assert "epoch boundary" in str(captured["error"])


# ---------------------------------------------------------------------------
# DurableService: snapshot / restore / replay
# ---------------------------------------------------------------------------

def test_durable_uninterrupted_matches_plain_service(tmp_path):
    durable = RunSpec(
        "repro.recovery.cell:durable_service_cell",
        dict(config=CONFIG, schedule=SCHEDULE, epochs=4,
             recovery_dir=str(tmp_path))).execute()
    assert canon(durable) == canon(baseline())


def test_restore_resumes_and_matches(tmp_path):
    first = DurableService(config=CONFIG, schedule=SCHEDULE, root=tmp_path)
    first.advance()
    first.advance()
    assert first.stats.snapshots == 2
    first.close()  # walk away mid-run (a polite crash)

    second = DurableService(root=tmp_path)  # no config: restore-only
    assert second.restored_from is not None
    assert second.restored_from.epoch == 2
    assert second.stats.restores == 1
    result = second.run(4)
    second.close()
    assert canon(result) == canon(baseline())


def test_wal_replays_post_snapshot_submissions(tmp_path):
    live_cmd = {"epoch": 2, "op": "set_policy", "hosts": ["h3"],
                "policy": {"min_rwnd": 1460}}

    # Baseline: uninterrupted durable run with the live submission.
    base = DurableService(config=CONFIG, schedule=SCHEDULE,
                          root=tmp_path / "base")
    base.advance()
    base.submit(live_cmd)
    expected = base.run(4)
    base.close()

    # Crash after the submission but before any later snapshot: the only
    # record of the command is the WAL.
    victim = DurableService(config=CONFIG, schedule=SCHEDULE,
                            root=tmp_path / "victim")
    victim.advance()
    victim.submit(live_cmd)
    victim.close()

    resumed = DurableService(root=tmp_path / "victim")
    assert resumed.stats.wal_replayed == 1
    result = resumed.run(4)
    resumed.close()
    assert canon(result) == canon(expected)


def test_crash_before_first_snapshot_replays_full_wal(tmp_path):
    victim = DurableService(config=CONFIG, schedule=SCHEDULE, root=tmp_path)
    victim.close()  # died before advance(): no checkpoint, only the WAL

    assert latest_checkpoint(tmp_path / "checkpoints") is None
    resumed = DurableService(config=CONFIG, root=tmp_path)
    assert resumed.restored_from is None
    assert resumed.stats.wal_replayed == len(SCHEDULE)
    result = resumed.run(4)
    resumed.close()
    assert canon(result) == canon(baseline())


def test_restore_only_root_without_state_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        DurableService(root=tmp_path)


def test_recovery_events_stay_off_the_service_bus(tmp_path):
    supervisor = DurableService(config=CONFIG, schedule=SCHEDULE,
                                root=tmp_path)
    supervisor.run(3)
    service_types = {r["type"] for r in supervisor.service.obs.bus.records()}
    assert not any(t.startswith("recovery.") for t in service_types)
    supervisor_types = [r["type"] for r in supervisor.bus.records()]
    assert supervisor_types.count("recovery.snapshot") == 3
    supervisor.close()


def test_snapshot_history_is_pruned(tmp_path):
    supervisor = DurableService(config=CONFIG, schedule=SCHEDULE,
                                root=tmp_path, keep=2)
    supervisor.run(4)
    supervisor.close()
    names = [p.name for p in list_checkpoints(tmp_path / "checkpoints")]
    assert names == ["epoch-00000004.ckpt", "epoch-00000003.ckpt"]
    assert supervisor.stats.checkpoints_pruned == 2


def test_checkpoint_every_zero_disables_snapshots(tmp_path):
    supervisor = DurableService(config=CONFIG, schedule=SCHEDULE,
                                root=tmp_path, checkpoint_every=0)
    result = supervisor.run(4)
    supervisor.close()
    assert supervisor.stats.snapshots == 0
    assert list_checkpoints(tmp_path / "checkpoints") == []
    assert canon(result) == canon(baseline())


# ---------------------------------------------------------------------------
# The real thing: SIGKILL in a child process, resume in a fresh one
# ---------------------------------------------------------------------------

CHILD = """
import json, sys
sys.path.insert(0, {src!r})
from repro.runtime.spec import RunSpec
kwargs = json.loads(sys.argv[1])
result = RunSpec("repro.recovery.cell:durable_service_cell", kwargs).execute()
print(json.dumps(result))
"""


def run_cell_in_child(kwargs, hashseed):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONHASHSEED": str(hashseed)}
    return subprocess.run(
        [sys.executable, "-c", CHILD.format(src=src), json.dumps(kwargs)],
        capture_output=True, text=True, env=env)


def test_sigkill_mid_epoch_then_resume_is_byte_identical(tmp_path):
    kwargs = dict(config=CONFIG, schedule=SCHEDULE, epochs=4,
                  recovery_dir=str(tmp_path), kill={"at": 0.027})
    killed = run_cell_in_child(kwargs, hashseed=12345)
    assert killed.returncode == -signal.SIGKILL, killed.stderr

    cell_dirs = os.listdir(tmp_path)
    assert len(cell_dirs) == 1
    ckpt_dir = tmp_path / cell_dirs[0] / "checkpoints"
    assert list_checkpoints(ckpt_dir), "the kill must postdate a snapshot"

    # Different hash seed on purpose: byte-identity must not lean on
    # set/dict iteration order.
    resumed = run_cell_in_child(kwargs, hashseed=1)
    assert resumed.returncode == 0, resumed.stderr
    assert canon(json.loads(resumed.stdout)) == canon(baseline())


# ---------------------------------------------------------------------------
# Whole-graph picklability is a contract, not an accident
# ---------------------------------------------------------------------------

def test_live_guarded_service_pickles_at_epoch_boundary():
    svc = Service(ServiceConfig(**CONFIG), schedule=SCHEDULE)
    svc.run_epoch()
    blob = pickle.dumps(svc)
    clone = pickle.loads(blob)
    report_orig = svc.run_epoch()
    report_clone = clone.run_epoch()
    assert canon(report_orig) == canon(report_clone)
