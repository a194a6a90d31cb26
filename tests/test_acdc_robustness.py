"""Failure-injection tests for the AC/DC datapath.

The feedback channel rides the data path: ACKs (and so PACKs) can be
lost, reordered or delayed.  The cumulative-counter encoding (§3.2) must
keep the vSwitch congestion control consistent through all of it.  The
injectors come from :mod:`repro.faults`, so the same seeded machinery
the chaos experiment sweeps is exercised here at unit scale.
"""

from conftest import is_data, is_pure_ack
from repro.core import AcdcVswitch
from repro.faults import PacketLoss, install_faults
from repro.workloads.apps import Sink


def test_feedback_survives_ack_loss(three_hosts):
    """Losing 20% of ACKs (and their PACKs) must not corrupt the
    vSwitch's view: cumulative counters resynchronise on the next ACK."""
    sim, topo, a, b, c, sw = three_hosts
    vsw_a = AcdcVswitch(a)
    vsw_b = AcdcVswitch(b)
    inner_c = AcdcVswitch(c)
    # Drop egress pure ACKs at the receiver host, wire side of AC/DC.
    c.attach_vswitch(inner_c)
    install_faults(c, [PacketLoss(0.2, seed=1, direction="egress",
                                  match=is_pure_ack)])
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    Sink(c, 7000)
    conns = []
    for src in (a, b):
        conn = src.connect(c.addr, 7000)
        conn.send_forever()
        conns.append(conn)
    sim.run(until=0.2)
    # Flows keep moving at close to line rate despite feedback loss.
    total = sum(cn.bytes_acked_total for cn in conns) * 8 / 0.2
    assert total > 8e9
    # The reader's cumulative totals never exceed what was received.
    for src, vsw in (("h1", vsw_a), ("h2", vsw_b)):
        for entry in vsw.table:
            if entry.key[0] == src:
                received = inner_c.table.entries[entry.key] \
                    .receiver_feedback.total_bytes
                assert entry.feedback_reader.last_total <= received


def test_acdc_flow_recovers_from_data_loss(three_hosts):
    """Window inference survives real loss: dupack detection in the
    vSwitch cuts the window (loss branch of Fig. 5)."""
    sim, topo, a, b, c, sw = three_hosts
    vsw_a = AcdcVswitch(a)
    loss = PacketLoss(0.02, seed=7, direction="egress", match=is_data)
    a.attach_vswitch(vsw_a)
    install_faults(a, [loss])
    for host in (b, c):
        host.attach_vswitch(AcdcVswitch(host))
    Sink(c, 7000)
    conn = a.connect(c.addr, 7000)
    conn.send(2_000_000)
    sim.run(until=1.0)
    assert conn.bytes_acked_total == 2_000_000
    assert loss.events > 0
    entry = vsw_a.table.entries[conn.key()]
    assert entry.vswitch_cc.loss_events > 0  # Fig. 5 loss branch taken


def test_gc_under_connection_churn(two_hosts):
    """Hundreds of short connections: the table grows and then shrinks
    back via FIN + GC, never leaking entries."""
    sim, topo, a, b, _sw = two_hosts
    vsw_a = AcdcVswitch(a)
    vsw_b = AcdcVswitch(b)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    Sink(b, 7000)
    for i in range(100):
        def open_one():
            conn = a.connect(b.addr, 7000)
            conn.send(2000)
            conn.close()
        sim.schedule(i * 0.001, open_one)
    sim.run(until=0.15)
    assert len(vsw_a.table) >= 150   # 2 entries per live connection
    sim.run(until=5.0)
    assert len(vsw_a.table) == 0
    assert len(vsw_b.table) == 0
    assert vsw_a.table.removes >= 200
