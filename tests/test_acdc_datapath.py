"""Integration tests for the AC/DC vSwitch datapath (§3, §4).

Two hosts on one ECN-marking switch; both run AC/DC.  Real guest TCP
traffic flows through the full pipeline and we assert on the state the
datapath builds and the rewrites it performs.
"""

from repro.core import AcdcConfig, AcdcVswitch, FlowPolicy, PolicyEngine
from repro.workloads.apps import Sink


def acdc_pair(two_hosts, config=None, policy=None, config_b=None):
    sim, topo, a, b, sw = two_hosts
    vsw_a = AcdcVswitch(a, config=config, policy=policy)
    vsw_b = AcdcVswitch(b, config=config_b or config, policy=policy)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    return sim, a, b, sw, vsw_a, vsw_b


def transfer(sim, a, b, nbytes=500_000, until=0.2, conn_opts=None):
    sink = Sink(b, 7000, **(conn_opts or {}))
    conn = a.connect(b.addr, 7000, **(conn_opts or {}))
    conn.send(nbytes)
    sim.run(until=until)
    return conn, sink


def test_syn_creates_entries_both_directions(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=1000, until=0.01)
    key = conn.key()
    rkey = (key[2], key[3], key[0], key[1])
    assert key in vsw_a.table.entries and rkey in vsw_a.table.entries
    assert key in vsw_b.table.entries and rkey in vsw_b.table.entries


def test_window_scale_snooped_from_handshake(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=1000, until=0.01,
                       conn_opts={"wscale": 7})
    entry = vsw_a.table.entries[conn.key()]
    # a's sender entry needs b's announced scale (7, from the listener's
    # conn_opts applied on accept).
    assert entry.peer_wscale == 7


def test_conntrack_matches_guest_state(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=200_000, until=0.1)
    ct = vsw_a.table.entries[conn.key()].conntrack
    assert ct.snd_una == conn.snd_una
    assert ct.snd_nxt == conn.snd_nxt


def test_rwnd_rewritten_on_acks(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=2_000_000, until=0.1)
    entry = vsw_a.table.entries[conn.key()]
    assert entry.enforcer.rewrites > 0
    # The guest's view of the peer window equals the enforced window
    # (modulo window-scale rounding).
    assert conn.peer_rwnd <= entry.enforced_wnd + (1 << conn.peer_wscale)


def test_enforced_window_caps_inflight(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    sink = Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send_forever()
    worst = {"excess": 0}

    def probe(c):
        entry = vsw_a.table.entries.get(c.key())
        if entry is not None:
            worst["excess"] = max(worst["excess"],
                                  c.bytes_in_flight - entry.enforced_wnd)

    conn.window_probe = probe
    sim.run(until=0.1)
    assert worst["excess"] <= 2 * conn.mss  # scale rounding + one segment


def test_ecn_feedback_hidden_from_vm(three_hosts):
    """An ECN-capable guest under AC/DC must never see CE or ECE.

    Two senders share the receiver's downlink so the queue actually
    crosses the marking threshold.
    """
    sim, topo, a, b, c, sw = three_hosts
    for host in (a, b, c):
        host.attach_vswitch(AcdcVswitch(host))
    opts = {"ecn": True, "cc": "cubic"}
    Sink(c, 7000, **opts)
    conns = []
    for src in (a, b):
        conn = src.connect(c.addr, 7000, **opts)
        conn.send_forever()
        conns.append(conn)
    sim.run(until=0.1)
    assert sw.marker.marked_packets > 0     # congestion did happen
    for conn in conns:
        assert conn.ecn_reduce_point == 0   # VM never reacted to ECE
        assert not conn.ece_latched


def test_pack_stripped_before_vm(two_hosts):
    """PACK options must not leak to guest connections."""
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    leaked = []
    orig_deliver = a.deliver

    def checking_deliver(pkt):
        if pkt.pack is not None:
            leaked.append(pkt)
        orig_deliver(pkt)

    a.deliver = checking_deliver
    transfer(sim, a, b, nbytes=500_000, until=0.1)
    assert not leaked


def test_feedback_flows_via_packs(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=1_000_000, until=0.1)
    entry_b = vsw_b.table.entries[conn.key()]   # receiver role at b
    assert entry_b.receiver_feedback.total_bytes == 1_000_000
    assert entry_b.receiver_feedback.packs_attached > 0
    entry_a = vsw_a.table.entries[conn.key()]
    assert entry_a.feedback_reader.last_total == 1_000_000


def test_fack_only_mode_consumes_facks(two_hosts):
    config = AcdcConfig(feedback_mode="fack-only")
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts, config=config)
    conn, _ = transfer(sim, a, b, nbytes=500_000, until=0.1)
    entry_b = vsw_b.table.entries[conn.key()]
    assert entry_b.receiver_feedback.facks_created > 0
    assert entry_b.receiver_feedback.packs_attached == 0
    # FACKs were consumed at a's vSwitch, never reaching the guest, yet
    # the feedback arrived.
    entry_a = vsw_a.table.entries[conn.key()]
    assert entry_a.feedback_reader.last_total == 500_000


def test_log_only_mode_never_rewrites(two_hosts):
    samples = []
    config = AcdcConfig(log_only=True)
    sim, topo, a, b, sw = two_hosts
    vsw_a = AcdcVswitch(a, config=config,
                        window_cb=lambda k, t, w: samples.append(w))
    vsw_b = AcdcVswitch(b, config=config)
    a.attach_vswitch(vsw_a)
    b.attach_vswitch(vsw_b)
    conn, _ = transfer(sim, a, b, nbytes=1_000_000, until=0.1,
                       conn_opts={"cc": "dctcp", "ecn": True})
    entry = vsw_a.table.entries[conn.key()]
    assert entry.enforcer.rewrites == 0
    assert samples, "window callback must still fire"
    # The guest kept its own ECN feedback loop (host DCTCP in charge).
    assert conn.peer_rwnd > entry.enforced_wnd or conn.ecn_ok


def test_policing_drops_cheater_excess(three_hosts):
    """A stack that ignores RWND is policed once congestion shrinks the
    enforced window below what the cheater keeps in flight."""
    sim, topo, a, b, c, sw = three_hosts
    config = AcdcConfig(police=True)
    vsw = {}
    for host in (a, b, c):
        vsw[host.addr] = AcdcVswitch(host, config=config)
        host.attach_vswitch(vsw[host.addr])
    Sink(c, 7000)
    cheat = a.connect(c.addr, 7000, ignore_rwnd=True)
    cheat.send_forever()
    honest = b.connect(c.addr, 7000)
    honest.send_forever()
    sim.run(until=0.1)
    assert vsw[a.addr].policer.drops > 0


def test_policing_spares_conforming_flows(two_hosts):
    config = AcdcConfig(police=True)
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts, config=config)
    conn, sink = transfer(sim, a, b, nbytes=2_000_000, until=0.2)
    assert vsw_a.policer.drops == 0
    assert sink.bytes_received == 2_000_000


def test_non_enforced_policy_passthrough(two_hosts):
    policy = PolicyEngine(default=FlowPolicy(algorithm="none"))
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts, policy=policy)
    conn, sink = transfer(sim, a, b, nbytes=500_000, until=0.1)
    entry = vsw_a.table.entries[conn.key()]
    assert entry.enforcer.rewrites == 0
    assert sink.bytes_received == 500_000
    # Passthrough flows keep their packets non-ECT on the wire.
    assert sw.marker.marked_packets == 0


def test_fin_marks_entries_for_gc(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    sink = Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(10_000)
    conn.close()
    sim.run(until=0.1)
    assert vsw_a.table.entries[conn.key()].fin_seen
    sim.run(until=2.5)
    assert conn.key() not in vsw_a.table.entries


def test_send_window_update_reaches_vm(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=100_000, until=0.1)
    entry = vsw_a.table.entries[conn.key()]
    entry.enforced_wnd = 4321 << 9  # something recognisable
    assert vsw_a.send_window_update(conn.key())
    sim.run(until=0.11)
    assert conn.peer_rwnd >= 4321 << 9


def test_send_dupacks_triggers_fast_retransmit(two_hosts):
    """The §3.3 flexibility: fabricated dupacks wake a stuck sender."""
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=100_000, until=0.05)
    before = conn.fast_retransmits
    # Pretend the flow has unacked data, then inject 3 dupacks.
    conn.snd_nxt = conn.snd_una + 3 * conn.mss
    entry = vsw_a.table.entries[conn.key()]
    entry.conntrack.snd_una = conn.snd_una
    assert vsw_a.send_dupacks(conn.key(), count=3)
    sim.run(until=0.06)
    assert conn.fast_retransmits == before + 1


def test_inactivity_timeout_cuts_window(two_hosts):
    """§3.1: snd_una < snd_nxt and the inactivity timer fires => loss."""
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=50_000, until=0.05)
    entry = vsw_a.table.entries[conn.key()]
    # Fake outstanding data, then let the timer fire with no ACKs.
    entry.conntrack.snd_nxt = entry.conntrack.snd_una + 10_000
    entry.vswitch_cc.wnd = 50 * a.mss
    vsw_a._arm_inactivity(entry)
    wnd_before = entry.vswitch_cc.window_bytes
    sim.run(until=0.1)
    assert entry.vswitch_cc.alpha == 1.0
    assert entry.vswitch_cc.window_bytes < wnd_before


def test_ops_counted(two_hosts):
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    transfer(sim, a, b, nbytes=100_000, until=0.1)
    counts = vsw_a.ops.snapshot()
    for op in ("flow_lookup", "forward", "seq_update", "cc_update",
               "ecn_mark", "rwnd_rewrite"):
        assert counts.get(op, 0) > 0, op


class PushWindowOnTimeout:
    """An ``on_timeout`` tap: no ACKs are flowing to carry the window an
    inferred timeout cut, so fabricate a §3.3 window update."""

    def __init__(self, vswitch):
        self.vswitch = vswitch

    def on_timeout(self, entry, wnd):
        self.vswitch.send_window_update(entry.key)


def test_proactive_window_update_on_inferred_timeout(two_hosts):
    """With the window-update tap on, an inferred timeout pushes the
    reduced window straight to the VM instead of waiting for the next
    ACK."""
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    vsw_a.add_tap(PushWindowOnTimeout(vsw_a))
    conn, _ = transfer(sim, a, b, nbytes=50_000, until=0.05)
    entry = vsw_a.table.entries[conn.key()]
    entry.conntrack.snd_nxt = entry.conntrack.snd_una + 10_000
    entry.vswitch_cc.wnd = 50 * a.mss
    big_before = 40 * a.mss
    conn.peer_rwnd = big_before
    vsw_a._arm_inactivity(entry)
    sim.run(until=0.1)
    # The VM's view of the peer window shrank without any real ACK.
    assert conn.peer_rwnd < big_before
    assert conn.peer_rwnd <= entry.enforced_wnd + (1 << conn.peer_wscale)


def test_no_window_scaling_still_enforced(two_hosts):
    """wscale=0 guests: the 16-bit RWND field still carries enforcement
    (clamped at 65535 bytes)."""
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    sink = Sink(b, 7000, wscale=0)
    conn = a.connect(b.addr, 7000, wscale=0)
    conn.send_forever()
    sim.run(until=0.1)
    entry = vsw_a.table.entries[conn.key()]
    assert entry.peer_wscale == 0
    assert conn.peer_rwnd <= 0xFFFF
    assert conn.bytes_acked_total > 0


def test_partial_deployment_degrades_gracefully(two_hosts):
    """Receiver host without AC/DC: no PACK feedback ever arrives, so the
    sender-side window simply grows (no enforcement) but traffic flows."""
    sim, topo, a, b, sw = two_hosts
    vsw_a = AcdcVswitch(a)
    a.attach_vswitch(vsw_a)   # b runs no vSwitch at all
    sink = Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(500_000)
    sim.run(until=0.2)
    assert sink.bytes_received == 500_000
    entry = vsw_a.table.entries[conn.key()]
    assert entry.feedback_reader.last_total == 0  # no PACKs came back


def test_pack_overflowing_mtu_becomes_fack(two_hosts):
    """§3.2: if attaching the PACK would exceed the MTU (e.g. on a
    piggy-backed ACK carrying payload), a dedicated FACK is sent instead
    and the original packet goes out unmodified."""
    from repro.net.packet import Packet
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=50_000, until=0.05)
    entry_b = vsw_b.table.entries[conn.key()]
    assert entry_b.receiver_feedback.total_bytes > 0
    facks_before = entry_b.receiver_feedback.facks_created
    wire_before = b.tx_packets
    # An ACK from b whose payload leaves no room for the 8-byte option.
    fat_ack = Packet(src=b.addr, sport=7000, dst=a.addr, dport=conn.lport,
                     ack=True, ack_seq=conn.snd_nxt,
                     payload_len=b.mtu - 40)  # headers fill the rest
    out = vsw_b.egress(fat_ack)
    assert out is not None and out.pack is None  # left unmodified
    sim.run(until=0.06)
    assert entry_b.receiver_feedback.facks_created == facks_before
    # (payload > 0 packets take the data path; craft a pure ACK instead)
    thin_but_full = Packet(src=b.addr, sport=7000, dst=a.addr,
                           dport=conn.lport, ack=True,
                           ack_seq=conn.snd_nxt, payload_len=0)
    thin_but_full.payload_len = 0
    # Shrink the MTU seen by the vSwitch to force the overflow path.
    vsw_b.mtu = 45
    out = vsw_b.egress(thin_but_full)
    assert out is not None and out.pack is None
    assert entry_b.receiver_feedback.facks_created == facks_before + 1


def test_pure_ack_egress_is_one_table_lookup(two_hosts):
    """The receiver module's feedback and the ECT marking of a pure ACK
    share one flow-table lookup (``lookups``/``hits`` used to count two
    per ACK while ``ops`` recorded one ``flow_lookup``)."""
    from repro.net.packet import make_ack_packet
    sim, a, b, sw, vsw_a, vsw_b = acdc_pair(two_hosts)
    conn, _ = transfer(sim, a, b, nbytes=200_000, until=0.1)
    table, ops = vsw_b.table, vsw_b.ops
    lookups, hits, before = table.lookups, table.hits, dict(ops.counts)
    ack = make_ack_packet(conn.key(), conn.snd_una)     # b -> a, no payload
    assert vsw_b.egress(ack) is ack
    assert (table.lookups - lookups, table.hits - hits) == (1, 1)
    assert ack.pack is not None and ack.ect and not ack.vm_ect
    moved = {op: n - before[op] for op, n in ops.counts.items()
             if n != before[op]}
    assert moved == {"flow_lookup": 1, "forward": 1, "pack_attach": 1,
                     "ecn_mark": 1, "checksum_recalc": 2}
