"""Integration tests: the Guard wired into the AC/DC vSwitch datapath.

Real guest TCP through the full pipeline; the guard watches the sender's
vSwitch.  A tight ``max_rwnd`` policy clamp stands in for congestion so a
cheating guest overruns the advertised edge within a few RTTs.
"""

from collections import Counter

from conftest import sanitizing
from repro.core import AcdcVswitch, FlowPolicy, PolicyEngine
from repro.faults import OptionStrip, install_faults
from repro.guard import Guard
from repro.obs import read_jsonl
from repro.obs.__main__ import main as obs_cli
from repro.sim import Simulator
from repro.net.topology import star
from repro.workloads.apps import Sink

MSS = 1440


def guarded_pair(two_hosts, policy=None):
    sim, topo, a, b, sw = two_hosts
    guard = Guard()
    vsw_a = AcdcVswitch(a, policy=policy, guard=guard)
    vsw_b = AcdcVswitch(b)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    return sim, a, b, vsw_a, guard


def transfer(sim, a, b, until=0.2, conn_opts=None, nbytes=None):
    opts = conn_opts or {}
    Sink(b, 7000, **{k: v for k, v in opts.items() if k != "ignore_rwnd"})
    conn = a.connect(b.addr, 7000, **opts)
    if nbytes is None:
        conn.send_forever()
    else:
        conn.send(nbytes)
    sim.run(until=until)
    return conn


def clamp_policy(segments=4):
    return PolicyEngine(default=FlowPolicy(max_rwnd=segments * MSS))


def test_conforming_flow_stays_level_zero(two_hosts):
    sim, a, b, vsw_a, guard = guarded_pair(
        two_hosts, policy=clamp_policy())
    conn = transfer(sim, a, b, nbytes=400_000)
    fc = vsw_a.table.entries[conn.key()].guard_state
    assert fc is not None
    assert fc.level == 0 and fc.state == "conforming"
    assert fc.advertised_edge is not None
    # No enforcement actions, no events of any kind: a clamped but
    # obedient guest pays nothing for the guard being present.
    assert guard.police_drops == 0
    assert guard.quarantine_drops == 0
    assert guard.events == []


def test_rwnd_cheater_escalated_and_policed(two_hosts):
    sim, a, b, vsw_a, guard = guarded_pair(
        two_hosts, policy=clamp_policy())
    conn = transfer(sim, a, b, conn_opts={"ignore_rwnd": True})
    fc = vsw_a.table.entries[conn.key()].guard_state
    assert fc.state == "violator"
    assert fc.level >= 2
    assert guard.police_drops > 0
    counts = Counter(row[1] for row in guard.events)
    assert counts["guard.escalate"] >= 1
    assert counts["guard.police_drop"] == guard.police_drops
    # The penalty clamp took hold of the vSwitch CC.
    entry = vsw_a.table.entries[conn.key()]
    assert entry.vswitch_cc.max_wnd <= 2 * vsw_a.mss


def test_a_dumped_guard_drop_reads_warning(two_hosts, tmp_path, capsys):
    """Regression: the guard noted its events into the flight ring at the
    default INFO, so a dumped policer drop (WARNING on the bus) vanished
    from ``timeline --min-sev warning``."""
    sim, topo, a, b, sw = two_hosts
    guard = Guard()
    with sanitizing(True):  # arms the ring
        vsw_a = AcdcVswitch(a, policy=clamp_policy(), guard=guard)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(AcdcVswitch(b))
    transfer(sim, a, b, until=0.1, conn_opts={"ignore_rwnd": True})
    path = vsw_a.flight.dump(dir_path=tmp_path)
    drops = [r for r in read_jsonl(path)
             if r["type"] == "guard.police_drop"]
    assert drops and {r["sev"] for r in drops} == {"warning"}
    capsys.readouterr()
    assert obs_cli(["timeline", path, "--min-sev", "warning"]) == 0
    assert "guard.police_drop" in capsys.readouterr().out


def test_cheater_events_deterministic_across_runs():
    signatures = []
    for _ in range(2):
        sim = Simulator()
        topo, hosts, sw = star(sim, 2, mtu=1500, ecn_enabled=True, seed=0)
        a, b = hosts
        guard = Guard()
        a.attach_vswitch(AcdcVswitch(a, policy=clamp_policy(), guard=guard))
        b.attach_vswitch(AcdcVswitch(b))
        transfer(sim, a, b, until=0.1, conn_opts={"ignore_rwnd": True})
        signatures.append(guard.events)
    assert signatures[0] == signatures[1]
    assert signatures[0] != []


def test_option_strip_degrades_to_local_signal_cc(two_hosts):
    sim, a, b, vsw_a, guard = guarded_pair(two_hosts)
    strip = OptionStrip(direction="ingress")
    install_faults(a, [strip])
    conn = transfer(sim, a, b, nbytes=400_000)
    assert strip.events > 0
    fc = vsw_a.table.entries[conn.key()].guard_state
    assert fc.fallback_active is True
    assert guard.fallbacks == 1
    entry = vsw_a.table.entries[conn.key()]
    # Swapped to the loss/timeout-driven fallback, still enforced.
    assert entry.vswitch_cc.name == "reno"
    assert Counter(row[1] for row in guard.events)[
        "guard.feedback_fallback"] == 1
    # Degraded is not punished: the flow keeps making progress.
    assert conn.bytes_acked_total >= 400_000


def test_fallback_is_one_way_and_preserves_operating_point(two_hosts):
    sim, a, b, vsw_a, guard = guarded_pair(two_hosts)
    install_faults(a, [OptionStrip(direction="ingress")])
    conn = transfer(sim, a, b, nbytes=600_000)
    # One swap, even though feedback stays dead for the rest of the flow.
    assert guard.fallbacks == 1
    entry = vsw_a.table.entries[conn.key()]
    assert entry.vswitch_cc.min_wnd <= entry.vswitch_cc.wnd
    assert entry.vswitch_cc.wnd <= entry.vswitch_cc.max_wnd


def test_shed_entry_is_passthrough_but_counted(two_hosts):
    sim, a, b, vsw_a, guard = guarded_pair(
        two_hosts, policy=clamp_policy())
    conn = transfer(sim, a, b, until=0.05)
    entry = vsw_a.table.entries[conn.key()]
    fc = entry.guard_state
    entry.shed = True
    rewrites = entry.enforcer.rewrites
    windows_seen = fc.window_packets
    acked = conn.bytes_acked_total
    seq_updates = vsw_a.ops.snapshot()["seq_update"]
    sim.run(until=0.15)
    # No enforcement or monitoring on a shed flow...
    assert entry.enforcer.rewrites == rewrites
    assert fc.window_packets == windows_seen
    # ...but conntrack statistics keep accruing and traffic still flows
    # (the guest stack is on its own, released from the clamp).
    assert vsw_a.ops.snapshot()["seq_update"] > seq_updates
    assert conn.bytes_acked_total > acked
