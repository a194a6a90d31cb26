"""Live policy migration on a running service: flows move, never restart."""

import pytest

from repro.control import Service, ServiceConfig


def running_service(**overrides):
    """A small service advanced one epoch so flow tables are populated."""
    defaults = dict(n_hosts=4, epoch_s=0.01, arrival_rate_hz=400.0,
                    msg_sizes=[16_384, 65_536], msg_weights=[3, 1],
                    peers=2, seed=5)
    defaults.update(overrides)
    svc = Service(ServiceConfig(**defaults))
    svc.sim.run(until=0.01)
    return svc


def test_clamp_migrates_live_entries_without_restart():
    svc = running_service()
    vsw = svc.vswitches["h1"]
    assert vsw.table.entries, "the open-loop workload must create flows"
    ids_before = {key: id(entry) for key, entry in vsw.table.entries.items()}
    svc.control.submit({"epoch": 0, "op": "set_policy", "hosts": ["h1"],
                        "policy": {"max_rwnd": 2920}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "applied"
    assert outcome["migrated"] == len(ids_before)
    # Same entry objects — migrated in place, not dropped and re-learned.
    assert {key: id(entry)
            for key, entry in vsw.table.entries.items()} == ids_before
    for entry in vsw.table.entries.values():
        assert entry.policy.max_rwnd == 2920
        assert entry.vswitch_cc.max_wnd == 2920
        assert entry.enforced_wnd <= 2920
    assert vsw.restarts == 0 and vsw.resurrections == 0
    assert vsw.ops.snapshot()["flow_migrate"] == len(ids_before)


def test_clamp_is_enforced_on_subsequent_traffic():
    svc = running_service()
    svc.control.submit({"epoch": 0, "op": "set_policy",
                        "policy": {"max_rwnd": 1460}})
    svc.control.drain(0)
    svc.sim.run(until=0.03)
    for vsw in svc.vswitches.values():
        for entry in vsw.table.entries.values():
            assert entry.enforced_wnd <= 1460


def test_cc_swap_carries_operating_point():
    svc = running_service()
    vsw = svc.vswitches["h2"]
    old = {key: (entry.vswitch_cc, entry.vswitch_cc.wnd)
           for key, entry in vsw.table.entries.items()}
    svc.control.submit({"epoch": 0, "op": "set_policy", "hosts": ["h2"],
                        "policy": {"algorithm": "reno"}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "applied"
    for key, entry in vsw.table.entries.items():
        old_cc, old_wnd = old[key]
        cc = entry.vswitch_cc
        assert cc is not old_cc and cc.name == "reno"
        expected = min(max(old_wnd, float(cc.min_wnd)), float(cc.max_wnd))
        assert cc.wnd == pytest.approx(expected)
        assert cc.cuts == old_cc.cuts
        assert cc.loss_events == old_cc.loss_events
    # The migrated flows keep flowing under the new CC.
    svc.sim.run(until=0.03)
    assert svc.workload.recorder.completed()


def test_rollback_reopens_the_window():
    svc = running_service()
    svc.control.submit({"epoch": 0, "op": "set_policy",
                        "policy": {"max_rwnd": 1460}})
    svc.control.drain(0)
    svc.sim.run(until=0.02)
    svc.control.submit({"epoch": 1, "op": "set_policy", "policy": {}})
    svc.control.drain(1)
    # Loosening must raise the tracked operating point immediately, not
    # wait for the CC to regrow from the clamped value on its own.
    for vsw in svc.vswitches.values():
        for entry in vsw.table.entries.values():
            assert entry.policy.max_rwnd is None
            assert entry.vswitch_cc.max_wnd > 1460
    svc.sim.run(until=0.04)
    post = [r.fct for r in svc.workload.recorder.records
            if r.end is not None and r.end > 0.03]
    assert post, "flows recover after the clamp is lifted"


def test_unenforced_policy_migration():
    svc = running_service()
    vsw = svc.vswitches["h3"]
    n = len(vsw.table.entries)
    svc.control.submit({"epoch": 0, "op": "set_policy", "hosts": ["h3"],
                        "policy": {"algorithm": "none"}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "applied" and outcome["migrated"] == n
    for entry in vsw.table.entries.values():
        assert not entry.policy.enforced
    svc.sim.run(until=0.03)  # passthrough flows keep completing
    assert svc.workload.recorder.completed(label_prefix="h3>")


def test_guard_hot_reload_reaches_live_components():
    svc = running_service(guard=True)
    guard = svc.guards["h1"]
    assert guard.monitor is not None
    svc.control.submit({"epoch": 0, "op": "set_guard",
                        "params": {"suspect_violation_rate": 0.05,
                                   "clean_windows": 5}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "applied"
    # Monitor and escalation read the same (mutated-in-place) config.
    assert guard.monitor.config.suspect_violation_rate == 0.05
    assert guard.escalation.config.clean_windows == 5
    svc.sim.run(until=0.02)  # service keeps running under new thresholds


def test_epoch_reports_and_result_shape():
    svc = Service(ServiceConfig(n_hosts=4, epoch_s=0.01, seed=5,
                                arrival_rate_hz=400.0, peers=2),
                  schedule=[{"epoch": 0, "op": "set_policy",
                             "policy": {"beta": 0.9}}])
    result = svc.run(2)
    assert [r["epoch"] for r in result["epochs"]] == [0, 1]
    (cmd,) = result["epochs"][0]["commands"]
    assert cmd["status"] == "applied"
    assert set(result["policies"]) == {"h1", "h2", "h3", "h4"}
    assert all(p["beta"] == 0.9 for p in result["policies"].values())
    assert result["counters"]["migrations"] > 0
    assert result["counters"]["restarts"] == 0
    assert len(result["signature"]) == 64
