"""Mid-run mutation determinism: §10's byte-identity contract holds for
service runs whose policies change while flows are in flight."""

from repro.control.service import service_cell
from repro.runtime import Runtime, RunSpec, canonical_json

CONFIG = {"n_hosts": 4, "epoch_s": 0.01, "arrival_rate_hz": 300.0,
          "peers": 2, "seed": 11, "guard": True}
#: Exercises every mutation path: policy clamp, guard reload, an
#: algorithm swap, a rejected command and the kill switch — all mid-run.
SCHEDULE = [
    {"epoch": 0, "op": "set_guard", "params": {"clean_windows": 5}},
    {"epoch": 1, "op": "set_policy", "hosts": ["h1"],
     "policy": {"max_rwnd": 2920}},
    {"epoch": 1, "op": "set_policy", "hosts": ["h3"],
     "policy": {"algorithm": "reno"}},
    {"epoch": 2, "op": "set_policy", "hosts": ["nope"], "policy": {}},
    {"epoch": 3, "op": "kill_switch"},
]
EPOCHS = 5


def spec():
    return RunSpec("repro.control.service:service_cell",
                   {"config": CONFIG, "schedule": SCHEDULE,
                    "epochs": EPOCHS})


def test_replay_of_identical_schedule_is_byte_identical():
    first = canonical_json(service_cell(CONFIG, SCHEDULE, EPOCHS))
    second = canonical_json(service_cell(CONFIG, SCHEDULE, EPOCHS))
    assert first == second


def test_serial_pool_and_cache_agree(tmp_path):
    serial = Runtime(jobs=1).map([spec()])[0]
    pooled_rt = Runtime(jobs=2)
    pooled = pooled_rt.map([spec(), spec()])
    assert pooled_rt.stats.executed == 2
    cached_rt = Runtime(jobs=1, cache=tmp_path / "cache")
    cached_rt.map([spec()])
    replay = cached_rt.map([spec()])[0]
    assert cached_rt.stats.cache_hits == 1
    blobs = {canonical_json(r) for r in (serial, *pooled, replay)}
    assert len(blobs) == 1, "serial, pool and cache replay must agree"


def test_schedule_actually_mutated_the_run():
    result = service_cell(CONFIG, SCHEDULE, EPOCHS)
    statuses = [c["status"] for c in result["commands"]]
    assert statuses.count("applied") == 4
    assert statuses.count("rejected") == 1
    assert result["counters"]["migrations"] > 0
    assert result["counters"]["restarts"] == 0
