"""Unit tests for the repro.faults injection subsystem.

Covers the contracts the chaos experiment leans on: seeded determinism,
per-cause accounting (checked against counts taken outside the
package), the fault chain's packet plumbing, a traced fault's one
``fault.inject`` decision, the chain as one stage of its host's wire
(the FACKs the vSwitch injects cross it, two installs are one chain, a
vSwitch attached later keeps it), and — the §4 soft-state claim — that
a vSwitch restart mid-transfer loses no connection because flow entries
resurrect from the first post-restart packet.
"""

from collections import Counter

import pytest

from conftest import is_data, is_pure_ack, sanitizing
from repro.core import AcdcConfig, AcdcVswitch, PlainOvs
from repro.faults import (
    Corruption,
    Duplication,
    LinkFlap,
    PacketLoss,
    Reordering,
    VswitchRestart,
    fault_counts,
    install_faults,
)
from repro.net.packet import Packet
from repro.obs import WARNING, ObsContext
from repro.workloads.apps import Sink


class _StubPipe:
    """Just enough pipeline for driving a fault's process() directly."""

    def __init__(self):
        self.causes = []

    def record(self, fault):
        fault.events += 1
        self.causes.append(fault.kind)


def _data_packet(i=0):
    return Packet(src="a", dst="b", sport=1, dport=2,
                  seq=i * 1000, payload_len=1000)


# ---------------------------------------------------------------------------
# Determinism and accounting
# ---------------------------------------------------------------------------
def test_same_seed_same_drop_sequence():
    """Two injectors with the same seed drop exactly the same packets."""
    outcomes = []
    for _ in range(2):
        fault = PacketLoss(0.3, seed=42)
        pipe = _StubPipe()
        outcomes.append([
            fault.process(_data_packet(i), pipe, 0, "egress") is None
            for i in range(500)
        ])
    assert outcomes[0] == outcomes[1]
    assert any(outcomes[0]) and not all(outcomes[0])


def test_different_seeds_differ():
    def drops(seed):
        fault = PacketLoss(0.3, seed=seed)
        pipe = _StubPipe()
        return [fault.process(_data_packet(i), pipe, 0, "egress") is None
                for i in range(500)]
    assert drops(1) != drops(2)


def test_events_match_recorder():
    fault = PacketLoss(0.5, seed=0)
    pipe = _StubPipe()
    dropped = sum(fault.process(_data_packet(i), pipe, 0, "egress") is None
                  for i in range(200))
    assert fault.events == dropped == pipe.causes.count("loss")
    assert fault.events > 0


def test_direction_and_match_scoping():
    fault = PacketLoss(1.0, seed=0, direction="egress", match=is_data)
    data = _data_packet()
    ack = Packet(src="a", dst="b", sport=1, dport=2, ack=True)
    assert fault.applies(data, "egress")
    assert not fault.applies(data, "ingress")
    assert not fault.applies(ack, "egress")
    assert is_pure_ack(ack)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PacketLoss(1.5)
    with pytest.raises(ValueError):
        Corruption(-0.1)
    with pytest.raises(ValueError):
        Reordering(1.5)
    with pytest.raises(ValueError):
        LinkFlap(down_for_s=0.006)
    with pytest.raises(ValueError):
        PacketLoss(0.1, direction="sideways")


def test_link_flap_down_fraction_roughly_matches():
    """Across many periods the jittered outage covers ~down/period of time."""
    flap = LinkFlap(down_for_s=0.001, seed=3)

    class _Pipe(_StubPipe):
        class sim:
            now = 0.0

    pipe = _Pipe()
    down = 0
    samples = 20_000
    for i in range(samples):
        _Pipe.sim.now = i * 1e-4  # 400 periods, 50 samples each
        if flap.process(_data_packet(i), pipe, 0, "egress") is None:
            down += 1
    assert 0.15 < down / samples < 0.25


# ---------------------------------------------------------------------------
# Pipeline plumbing on a live topology
# ---------------------------------------------------------------------------
def test_duplication_delivers_extra_copies(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    dup = Duplication(0.2, seed=5, match=is_data)
    install_faults(a, [dup])
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    sim.run(until=1.0)
    assert conn.bytes_acked_total == 500_000
    dups = dup.events
    assert dups > 0
    # Every duplicate is an extra wire packet the receiver saw.
    assert b.rx_packets > dups


def test_reordering_and_transfer_completes(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    reorder = Reordering(0.05, seed=9, match=is_data)
    install_faults(a, [reorder])
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    sim.run(until=1.0)
    assert conn.bytes_acked_total == 500_000
    assert reorder.events > 0


# ---------------------------------------------------------------------------
# vSwitch restart and mid-flow resurrection
# ---------------------------------------------------------------------------
def test_vswitch_restart_loses_no_connection(three_hosts):
    """Both the sender's and the receiver's vSwitch lose all flow state
    mid-transfer; the connection survives, entries resurrect, and
    goodput recovers to the same order within 100 ms of virtual time."""
    sim, topo, a, b, c, sw = three_hosts
    vsw_a = AcdcVswitch(a)
    vsw_c = AcdcVswitch(c)
    b.attach_vswitch(AcdcVswitch(b))
    a.attach_vswitch(vsw_a)
    c.attach_vswitch(vsw_c)
    install_faults(a, [VswitchRestart(at=(0.05,))])
    install_faults(c, [VswitchRestart(at=(0.05,))])
    Sink(c, 7000)
    conn = a.connect(c.addr, 7000)
    conn.send_forever()

    sim.run(until=0.0499)  # just before the restart fires at t=0.05
    before = conn.bytes_acked_total
    assert before > 0
    assert vsw_a.restarts == 0 and len(vsw_a.table) > 0

    sim.run(until=0.15)
    assert vsw_a.restarts == 1 and vsw_c.restarts == 1
    # Entries were rebuilt mid-flow on both hosts, with no SYN in sight.
    assert vsw_a.resurrections > 0
    assert vsw_c.resurrections > 0
    assert len(vsw_a.table) > 0
    # The connection never reset and kept moving data.
    after = conn.bytes_acked_total
    assert after > before
    # Recovery criterion: the 100 ms after the restart average at least
    # half the pre-restart rate (pre-restart: 50 ms of slow start + line
    # rate; any entry-resurrection stall longer than ~10 ms would fail).
    pre_rate = before / 0.0499
    post_rate = (after - before) / (0.15 - 0.0499)
    assert post_rate > 0.5 * pre_rate


def test_mid_flow_entry_creation_without_syn(three_hosts):
    """An AC/DC vSwitch attached *after* the handshake (no SYN ever seen)
    builds entries from in-flight traffic and enforces on them."""
    sim, topo, a, b, c, sw = three_hosts
    b.attach_vswitch(AcdcVswitch(b))
    Sink(c, 7000)
    conn = a.connect(c.addr, 7000)
    conn.send_forever()
    sim.run(until=0.02)  # established + flowing, nobody watching a

    vsw_a = AcdcVswitch(a)
    a.attach_vswitch(vsw_a)
    sim.run(until=0.1)
    assert vsw_a.resurrections > 0
    entry = vsw_a.table.entries.get(conn.key())
    assert entry is not None
    # Conntrack seeded itself from mid-flow packets.
    assert entry.conntrack.initialized
    assert entry.conntrack.snd_una is not None
    # And the flow is actually being enforced (windows computed).
    assert entry.enforced_wnd > 0
    assert conn.bytes_acked_total > 0


def test_restart_recorder_cause(three_hosts):
    sim, topo, a, b, c, sw = three_hosts
    vsw_a = AcdcVswitch(a)
    a.attach_vswitch(vsw_a)
    pipeline = install_faults(a, [VswitchRestart(at=(0.01, 0.02))])
    for host in (b, c):
        host.attach_vswitch(AcdcVswitch(host))
    Sink(c, 7000)
    conn = a.connect(c.addr, 7000)
    conn.send(1_000_000)
    sim.run(until=0.5)
    assert conn.bytes_acked_total == 1_000_000
    assert vsw_a.restarts == 2
    assert fault_counts(pipeline.faults) == {"vswitch_restart": 2}


@pytest.mark.parametrize("datapath", ["acdc", "plain", "none"])
def test_a_restart_counts_only_where_a_vswitch_restarted(two_hosts,
                                                         datapath):
    """An AC/DC host counts one event per instant; a host whose datapath
    has no ``restart()`` (``PlainOvs``), or that has no vSwitch, restarts
    nothing and counts nothing."""
    sim, topo, a, b, _sw = two_hosts
    vswitch = {"acdc": AcdcVswitch, "plain": PlainOvs,
               "none": lambda host: None}[datapath](a)
    if vswitch is not None:
        a.attach_vswitch(vswitch)
    restart = VswitchRestart(at=(0.001, 0.002, 0.003))
    chain = install_faults(a, [restart])
    sim.run(until=0.01)
    restarted = 3 if datapath == "acdc" else 0
    assert getattr(vswitch, "restarts", 0) == restarted
    assert restart.events == restarted
    assert fault_counts(chain.faults) == (
        {"vswitch_restart": 3} if restarted else {})


# ---------------------------------------------------------------------------
# Counts taken outside repro.faults, and the traced decision
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("direction", ["ingress", "egress"])
@pytest.mark.parametrize("make", [
    lambda d: PacketLoss(0.05, seed=11, direction=d, match=is_data),
    lambda d: Corruption(0.05, seed=12, direction=d, match=is_data),
    lambda d: Duplication(0.05, seed=13, direction=d, match=is_data),
], ids=["loss", "corrupt", "duplicate"])
def test_events_match_the_hosts_packet_counts(two_hosts, make, direction):
    """A fault's ``events`` equal the packets its host's wire and the
    inner vSwitch disagree on: on ingress, ``Host.rx_packets`` against
    the inner vSwitch's ingress count; on egress, the inner vSwitch's
    egress count against ``Host.tx_packets`` less the FACKs the vSwitch
    put on the wire itself."""
    sim, topo, a, b, _sw = two_hosts
    host = b if direction == "ingress" else a
    inner = AcdcVswitch(host)
    other = a if host is b else b
    other.attach_vswitch(AcdcVswitch(other))
    fault = make(direction)
    host.attach_vswitch(inner)
    install_faults(host, [fault])
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(300_000)
    sim.run(until=0.5)
    assert conn.bytes_acked_total == 300_000
    ops = inner.ops
    if direction == "ingress":
        lost = host.rx_packets - ops.packets_ingress
    else:
        wired = host.tx_packets - ops.counts["fack_create"]
        lost = ops.packets_egress - wired
    copied = isinstance(fault, Duplication)
    assert fault.events > 0
    assert fault.events == (-lost if copied else lost)


def test_a_traced_fault_is_one_fault_inject_on_the_bus_and_the_ring(
        two_hosts):
    sim, topo, a, b, _sw = two_hosts
    obs = ObsContext(sim)
    with sanitizing(True):
        vsw_a = AcdcVswitch(a, obs=obs)
    restart = VswitchRestart(at=(0.001, 0.002))
    a.attach_vswitch(vsw_a)
    install_faults(a, [restart])
    sim.run(until=0.01)
    assert restart.events == 2
    assert obs.bus.by_type()["fault.inject"] == 2
    injected = [e for e in obs.bus.events if e.type == "fault.inject"]
    assert [(e.t, e.severity, e.fields) for e in injected] == [
        (t, WARNING, {"cause": "vswitch_restart", "n": 1})
        for t in (0.001, 0.002)]
    ring = [r for r in vsw_a.flight.records() if r["type"] == "fault.inject"]
    assert [(r["t"], r["sev"], r["cause"]) for r in ring] == [
        (t, "warning", "vswitch_restart") for t in (0.001, 0.002)]


# ---------------------------------------------------------------------------
# The chain is one stage of its host's wire
# ---------------------------------------------------------------------------
def test_a_fack_the_vswitch_injects_crosses_its_hosts_chain(two_hosts):
    """With ``fack-only`` feedback every report is a FACK the receiver's
    vSwitch puts on the wire itself; an egress loss of every FACK on the
    receiver drops each one, so the sender consumes none."""
    sim, topo, a, b, _sw = two_hosts
    config = AcdcConfig(feedback_mode="fack-only")
    vsw_a, vsw_b = AcdcVswitch(a, config=config), AcdcVswitch(b, config=config)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    loss = PacketLoss(1.0, direction="egress", match=lambda p: p.is_fack)
    install_faults(b, [loss])
    Sink(b, 7000)
    a.connect(b.addr, 7000).send_forever()
    sim.run(until=0.05)
    assert loss.events == vsw_b.ops.counts["fack_create"] > 0
    assert vsw_a.ops.counts["feedback_extract"] == 0


def test_two_installs_on_one_traced_host_are_one_chain_on_the_bus(
        two_hosts):
    sim, topo, a, b, _sw = two_hosts
    obs = ObsContext(sim)
    a.attach_vswitch(AcdcVswitch(a, obs=obs))
    b.attach_vswitch(AcdcVswitch(b))
    first = [PacketLoss(0.05, seed=21, direction="egress", match=is_data)]
    second = [Duplication(0.05, seed=22, direction="egress", match=is_data)]
    chains = [install_faults(a, first), install_faults(a, second)]
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(300_000)
    sim.run(until=0.5)
    assert conn.bytes_acked_total == 300_000
    on_bus = Counter(e.fields["cause"] for e in obs.bus.events
                     if e.type == "fault.inject")
    assert set(on_bus) == {"loss", "duplicate"}
    assert on_bus == fault_counts(first + second)
    assert chains[0] is chains[1] is a.fault_chain
    assert chains[0].faults == first + second


def test_a_vswitch_attached_after_the_faults_keeps_the_chain(two_hosts):
    """The chain belongs to the host: a vSwitch attached later neither
    unhooks it nor hides from its restarts."""
    sim, topo, a, b, _sw = two_hosts
    loss = PacketLoss(0.05, seed=23, direction="egress", match=is_data)
    restart = VswitchRestart(at=(0.01,))
    chain = install_faults(a, [loss, restart])
    vsw_a = AcdcVswitch(a)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(AcdcVswitch(b))
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(300_000)
    sim.run(until=0.5)
    assert conn.bytes_acked_total == 300_000
    assert loss.events > 0
    assert vsw_a.restarts == 1 and restart.events == 1
    assert a.fault_chain is chain and a.vswitch is vsw_a
