"""Command validation and all-or-nothing application (repro.control)."""

import dataclasses

import pytest

from repro.control import Service, ServiceConfig, parse_policy
from repro.control.commands import CommandError, command_shape
from repro.core import FlowPolicy


def tiny_service(**overrides):
    defaults = dict(n_hosts=4, epoch_s=0.01, arrival_rate_hz=100.0,
                    msg_sizes=[16_384], msg_weights=[1], peers=1, seed=3)
    defaults.update(overrides)
    return Service(ServiceConfig(**defaults))


# ---------------------------------------------------------------------------
# Tenant policy / shape parsing
# ---------------------------------------------------------------------------

def test_tenant_policy_round_trips():
    policy = FlowPolicy(algorithm="reno", beta=0.5, max_rwnd=10_000)
    assert parse_policy(dataclasses.asdict(policy)) == policy
    assert parse_policy({}) == FlowPolicy()


@pytest.mark.parametrize("raw, fragment", [
    ("not-a-dict", "must be an object"),
    ({"algorithm": "warp"}, "invalid policy"),
    ({"beta": 7.0}, "invalid policy"),
    ({"max_rwnd": -4}, "invalid policy"),
    ({"algorithm": "dctcp", "extra": 1}, "unknown policy field"),
    ({"max_rwnd": True}, "invalid policy"),
    ({"max_rwnd": 1460.5}, "invalid policy"),
])
def test_tenant_policy_rejections(raw, fragment):
    with pytest.raises(CommandError, match=fragment):
        parse_policy(raw)


@pytest.mark.parametrize("raw, fragment", [
    ([], "must be an object"),
    ({"op": "set_policy"}, "epoch must be"),
    ({"epoch": -1, "op": "set_policy"}, "epoch must be"),
    ({"epoch": True, "op": "set_policy"}, "epoch must be"),
    ({"epoch": 0, "op": "reboot"}, "unknown op"),
])
def test_command_shape_rejections(raw, fragment):
    with pytest.raises(CommandError, match=fragment):
        command_shape(raw)


# ---------------------------------------------------------------------------
# Queue-level rejection (malformed commands never enter the queue)
# ---------------------------------------------------------------------------

def test_malformed_submit_is_logged_not_queued():
    svc = tiny_service()
    svc.control.submit("garbage")
    svc.control.submit({"epoch": 0, "op": "reboot"})
    assert [e["status"] for e in svc.control.log] == ["rejected"] * 2
    assert svc.control.drain(99) == []  # nothing was queued
    kinds = [r for r in svc.obs.bus.records()
             if r["type"] == "control.command"]
    assert all(r["status"] == "rejected" and r["reason"] for r in kinds)


# ---------------------------------------------------------------------------
# set_policy
# ---------------------------------------------------------------------------

def test_set_policy_rejects_unknown_host_and_applies_nothing():
    svc = tiny_service()
    before = dict(svc.control.intended)
    svc.control.submit({"epoch": 0, "op": "set_policy",
                        "hosts": ["h1", "mystery"],
                        "policy": {"max_rwnd": 9000}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "rejected"
    assert "mystery" in outcome["reason"]
    assert svc.control.intended == before


def test_set_policy_rejects_unknown_fields_and_missing_policy():
    svc = tiny_service()
    svc.control.submit({"epoch": 0, "op": "set_policy",
                        "policy": {}, "bogus": 1})
    svc.control.submit({"epoch": 0, "op": "set_policy"})
    first, second = svc.control.drain(0)
    assert first["status"] == "rejected" and "bogus" in first["reason"]
    assert second["status"] == "rejected" and "policy" in second["reason"]


def test_set_policy_applies_to_named_hosts_only():
    svc = tiny_service()
    svc.control.submit({"epoch": 0, "op": "set_policy", "hosts": ["h2"],
                        "policy": {"max_rwnd": 9000}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "applied"
    assert svc.control.intended["h2"].max_rwnd == 9000
    assert svc.control.intended["h1"].max_rwnd is None
    assert svc.vswitches["h2"].policy.default.max_rwnd == 9000


@pytest.mark.parametrize("hosts", [[{"x": 1}], [["h1"]], ["h1", 2]])
def test_non_string_host_is_rejected_and_later_commands_apply(hosts):
    svc = tiny_service()
    svc.control.submit({"epoch": 0, "op": "set_policy", "hosts": hosts,
                        "policy": {"max_rwnd": 9000}})
    svc.control.submit({"epoch": 0, "op": "set_policy", "hosts": ["h2"],
                        "policy": {"beta": 0.5}})
    bad, ok = svc.control.drain(0)
    assert bad["status"] == "rejected" and "strings" in bad["reason"]
    assert ok["status"] == "applied"
    assert svc.control.intended["h1"].max_rwnd is None
    assert svc.control.intended["h2"].beta == 0.5


# ---------------------------------------------------------------------------
# set_guard
# ---------------------------------------------------------------------------

def test_set_guard_requires_guard_mode():
    svc = tiny_service(guard=False)
    svc.control.submit({"epoch": 0, "op": "set_guard",
                        "params": {"clean_windows": 5}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "rejected"
    assert "not enabled" in outcome["reason"]


def test_set_guard_applies_to_every_host():
    svc = tiny_service(guard=True)
    svc.control.submit({"epoch": 0, "op": "set_guard",
                        "params": {"clean_windows": 7,
                                   "suspect_violation_rate": 0.1}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "applied"
    for guard in svc.guards.values():
        assert guard.config.clean_windows == 7
        assert guard.config.suspect_violation_rate == 0.1


@pytest.mark.parametrize("params", [
    {"clean_windows": 5, "seed": 9},          # immutable field mixed in
    {"clean_windows": 5, "nonsense": 1},      # unknown field mixed in
    {"clean_windows": -3},                    # invalid value
])
def test_set_guard_is_all_or_nothing(params):
    svc = tiny_service(guard=True)
    before = {a: g.config.clean_windows for a, g in svc.guards.items()}
    svc.control.submit({"epoch": 0, "op": "set_guard", "params": params})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "rejected"
    # The valid half of the change must not have leaked onto any host.
    assert {a: g.config.clean_windows
            for a, g in svc.guards.items()} == before


def test_set_guard_refuses_a_live_flow_table_budget():
    """Regression: a live ``max_flow_entries`` was reported applied but
    armed no watchdog (the guard builds one only at attach), so it never
    bounded a table."""
    svc = tiny_service(guard=True)
    svc.control.submit({"epoch": 0, "op": "set_guard",
                        "params": {"clean_windows": 5,
                                   "max_flow_entries": 1}})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "rejected"
    assert "'max_flow_entries' cannot be changed live" in outcome["reason"]
    for guard in svc.guards.values():
        assert guard.watchdog is None
        assert guard.config.max_flow_entries is None
        assert guard.config.clean_windows == 3


@pytest.mark.parametrize("params, fragment", [
    ({"decay_base_s": float("nan")}, "decay_base_s"),
    ({"decay_base_s": -1.0}, "decay_base_s"),
    ({"clean_windows": 2.5}, "clean_windows"),
    ({"clean_windows": True}, "clean_windows"),
])
def test_set_guard_refuses_a_bad_decay_base_or_window_count(params,
                                                            fragment):
    """Regression: a NaN or negative decay base and a fractional or
    boolean window count came back applied; with a NaN base every decay
    deadline is NaN and an escalated flow never steps back down."""
    svc = tiny_service(guard=True)
    svc.control.submit({"epoch": 0, "op": "set_guard", "params": params})
    (outcome,) = svc.control.drain(0)
    assert outcome["status"] == "rejected"
    assert fragment in outcome["reason"]
    for guard in svc.guards.values():
        assert guard.config.decay_base_s == 0.05
        assert guard.config.clean_windows == 3


# ---------------------------------------------------------------------------
# kill_switch
# ---------------------------------------------------------------------------

def test_kill_switch_reverts_policy_and_guard_state():
    svc = tiny_service(guard=True, default_policy={"beta": 0.8})
    boot = svc.config.guard_config()
    svc.control.submit({"epoch": 0, "op": "set_guard",
                        "params": {"clean_windows": 9,
                                   "suspect_violation_rate": 0.1}})
    svc.control.submit({"epoch": 0, "op": "set_policy", "hosts": ["h1"],
                        "policy": {"algorithm": "reno", "max_rwnd": 9000}})
    svc.control.drain(0)
    assert svc.control.intended["h1"].max_rwnd == 9000
    svc.control.submit({"epoch": 1, "op": "kill_switch"})
    (outcome,) = svc.control.drain(1)
    assert outcome["status"] == "applied"
    # Back to the boot configuration, not to the last applied command.
    boot_policy = FlowPolicy(beta=0.8)
    assert all(p == boot_policy for p in svc.control.intended.values())
    assert svc.vswitches["h1"].policy.default.max_rwnd is None
    for guard in svc.guards.values():
        assert guard.config.clean_windows == boot.clean_windows
        assert guard.config.suspect_violation_rate == \
            boot.suspect_violation_rate
    rollbacks = [r for r in svc.obs.bus.records()
                 if r["type"] == "control.rollback"]
    assert rollbacks and rollbacks[-1]["reason"] == "kill_switch"
