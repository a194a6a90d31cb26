"""Guest TCP: loss detection and recovery (dupacks, SACK, RTO)."""

from hypothesis import given, strategies as st

from conftest import FaultInjector
from repro.tcp.connection import _merge_interval
from repro.workloads.apps import Sink


def lossy_transfer(two_hosts, drop_pred, nbytes=400_000, until=0.5):
    """Run a transfer with `drop_pred(pkt, idx)` applied to a's egress."""
    sim, topo, a, b, _sw = two_hosts
    injector = FaultInjector(drop_egress=drop_pred)
    a.attach_vswitch(injector)
    sink = Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(nbytes)
    sim.run(until=until)
    return conn, sink, injector


def test_single_loss_recovers_by_fast_retransmit(two_hosts):
    dropped = []

    def drop(pkt, i):
        if pkt.payload_len > 0 and not dropped and pkt.seq > 20_000:
            dropped.append(pkt.seq)
            return True
        return False

    conn, sink, _ = lossy_transfer(two_hosts, drop)
    assert sink.bytes_received == 400_000
    assert conn.fast_retransmits == 1
    assert conn.timeouts == 0
    assert not conn.in_recovery


def test_burst_loss_recovers_with_sack(two_hosts):
    """Dropping a burst of consecutive segments must not need an RTO: the
    SACK scoreboard retransmits all holes within the recovery window."""
    window = {"count": 0}

    def drop(pkt, i):
        if pkt.payload_len > 0 and 30_000 < pkt.seq < 90_000 and window["count"] < 10:
            window["count"] += 1
            return True
        return False

    conn, sink, _ = lossy_transfer(two_hosts, drop)
    assert sink.bytes_received == 400_000
    assert conn.fast_retransmits >= 1
    assert conn.timeouts == 0


def test_lost_retransmission_needs_rto(two_hosts):
    """If the retransmission itself is lost, only the RTO saves the flow."""
    # Data begins at seq 1 (the SYN consumes seq 0), so segment k starts
    # at 1 + k * MSS.
    seen = {"orig": False, "retx": 0}
    target = (1 + 10 * 1460, 1 + 11 * 1460)

    def drop(pkt, i):
        if pkt.payload_len > 0 and pkt.seq == target[0]:
            seen["retx"] += 1
            if seen["retx"] <= 2:   # original + first retransmission
                return True
        return False

    conn, sink, _ = lossy_transfer(two_hosts, drop, nbytes=100_000, until=1.0)
    assert sink.bytes_received == 100_000
    assert conn.timeouts >= 1


def test_ack_loss_is_harmless(two_hosts):
    """Cumulative ACKs cover for one another."""
    sim, topo, a, b, _sw = two_hosts
    # Drop 30% of pure ACKs leaving b.
    state = {"i": 0}

    def drop(pkt, i):
        if pkt.payload_len == 0 and pkt.ack and not pkt.syn:
            state["i"] += 1
            return state["i"] % 3 == 0
        return False

    b.attach_vswitch(FaultInjector(drop_egress=drop))
    sink = Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(300_000)
    sim.run(until=0.5)
    assert sink.bytes_received == 300_000


def test_heavy_random_loss_still_completes(two_hosts):
    import random
    rng = random.Random(4)

    def drop(pkt, i):
        return pkt.payload_len > 0 and rng.random() < 0.05

    conn, sink, _ = lossy_transfer(two_hosts, drop, nbytes=300_000, until=2.0)
    assert sink.bytes_received == 300_000


def test_retransmitted_bytes_counted(two_hosts):
    def drop(pkt, i):
        return pkt.payload_len > 0 and pkt.seq == 1 + 10 * 1460 and i < 30

    conn, sink, _ = lossy_transfer(two_hosts, drop, nbytes=100_000)
    assert conn.retransmitted_bytes >= 1460


def test_rto_backoff_grows_and_resets(two_hosts):
    """Consecutive timeouts double the RTO; a new ACK resets the backoff."""
    state = {"drops": 0}

    def drop(pkt, i):
        if pkt.payload_len > 0 and state["drops"] < 3 and pkt.seq == 0 + 1:
            state["drops"] += 1
            return True
        return False

    conn, sink, _ = lossy_transfer(two_hosts, drop, nbytes=50_000, until=2.0)
    assert sink.bytes_received == 50_000
    assert conn.backoff == 0  # reset after successful delivery


def test_fin_retransmitted_on_loss(two_hosts):
    state = {"dropped": False}

    def drop(pkt, i):
        if pkt.fin and not state["dropped"]:
            state["dropped"] = True
            return True
        return False

    sim, topo, a, b, _sw = two_hosts
    a.attach_vswitch(FaultInjector(drop_egress=drop))
    Sink(b, 7000)
    conn = a.connect(b.addr, 7000)
    conn.send(5000)
    conn.close()
    sim.run(until=1.0)
    assert conn.state == "CLOSED"
    assert state["dropped"]


# ---------------------------------------------------------------------------
# Scoreboard interval algebra
# ---------------------------------------------------------------------------
def test_merge_interval_disjoint():
    iv = [(10, 20)]
    _merge_interval(iv, 30, 40)
    assert iv == [(10, 20), (30, 40)]


def test_merge_interval_overlapping():
    iv = [(10, 20), (30, 40)]
    _merge_interval(iv, 15, 35)
    assert iv == [(10, 40)]


def test_merge_interval_touching():
    iv = [(10, 20)]
    _merge_interval(iv, 20, 30)
    assert iv == [(10, 30)]


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                min_size=1, max_size=40))
def test_merge_interval_invariants(raw):
    """Result is always sorted, disjoint, and covers exactly the union."""
    intervals = []
    covered = set()
    for start, length in raw:
        end = start + length
        _merge_interval(intervals, start, end)
        covered.update(range(start, end))
        # sorted and strictly disjoint
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 < s2 or (e1 <= s2)
            assert s1 < e1
        got = set()
        for s, e in intervals:
            got.update(range(s, e))
        assert got == covered
