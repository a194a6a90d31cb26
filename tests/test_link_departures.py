"""The virtual-finish-time port: one event per hop, departures settled lazily.

A port computes a packet's finish time when it admits it and schedules the
hop's single event (delivery at ``finish + delay``); what happens *at* the
finish instant — buffer release, INT hop record, sanitizer audit, tx
counters — sits on a settle queue and is applied before anything reads the
state it changes (DESIGN.md §10).  These tests pin that the laziness is
invisible: against the evented port this replaced (kept here, and only
here, as a reference model), at exact ties, to readers between events,
across a snapshot, and to the INT record's residence time.  A host NIC is
a single FIFO, so its departures wait in a plain deque instead; the
heap-settled NIC it replaced is the second reference model below.
"""

import heapq
import pickle
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.control.service import Service, ServiceConfig
from repro.experiments.common import ACDC, DCTCP
from repro.experiments.runners import run_dumbbell, run_incast
from repro.net.buffer import SharedBuffer
from repro.net.link import SwitchTxPort
from repro.net.packet import ECN_ECT0, ECN_NOT_ECT, Packet, PackOption
from repro.net.red import EcnMarker
from repro.obs.int import IntStamper
from repro.runtime.spec import canonical_json
from repro.sim import Simulator


def data(size, ecn=ECN_NOT_ECT):
    return Packet(src="a", dst="b", sport=1, dport=2,
                  payload_len=size - 40, ecn=ecn)


# ---------------------------------------------------------------------------
# Reference model: the evented serializer the settle queue replaced
# ---------------------------------------------------------------------------
class EventedPort:
    """Pre-change switch port: a FIFO in front of a busy flag, a finish
    event per packet that releases the buffer, then a propagation event."""

    def __init__(self, sim, rate_bps, delay_s, shared, marker, queue_id, peer):
        self.sim, self.rate_bps, self.delay_s = sim, rate_bps, delay_s
        self.shared, self.marker, self.queue_id = shared, marker, queue_id
        self.peer = peer
        self.tx_packets = self.dropped = self.marked = 0
        self._queue = deque()
        self._busy = False
        shared.register_queue(queue_id)

    def enqueue(self, packet):
        qb = self.shared.occupancy(self.queue_id)
        decision = self.marker.decide(packet, qb)
        if decision.drop or not self.shared.try_admit(self.queue_id,
                                                      packet.size):
            self.dropped += 1
            return False
        if decision.marked:
            self.marker.commit_mark(packet)
            self.marked += 1
        self._queue.append(packet)
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self):
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue.popleft()
        self.sim.schedule(packet.size * 8.0 / self.rate_bps,
                          self._finish, packet)

    def _finish(self, packet):
        self.shared.release(self.queue_id, packet.size)
        self.tx_packets += 1
        self.sim.schedule(self.delay_s, self.peer.receive, packet)
        self._start_next()


class World:
    """Two ports on one small shared buffer, driven by a list of offers
    ``(time, port index, wire size, ECT?)``; records what a differential
    test compares."""

    RATE, DELAY, CAPACITY, K = 8.0, 7.0, 400, 150   # 1 byte = 1 second

    def __init__(self, make_port, offers):
        self.sim = Simulator()
        self.shared = SharedBuffer(self.CAPACITY, dt_alpha=1.0)
        marker = EcnMarker(enabled=True, threshold_bytes=self.K, seed=3)
        self.arrivals = [[], []]
        self.ports = [make_port(self.sim, self.RATE, self.DELAY, self.shared,
                                marker, q, self._peer(q)) for q in (0, 1)]
        self.index = {}
        self.offers_seen = []
        for i, (when, port, size, ect) in enumerate(offers):
            packet = data(size, ECN_ECT0 if ect else ECN_NOT_ECT)
            self.index[packet.pid] = i
            self.sim.schedule_at(when, self._arrive, port, packet)
        self.sim.run()

    def _peer(self, q):
        world = self

        class Peer:
            def receive(self, packet):
                world.arrivals[q].append(
                    (world.sim.now, world.index[packet.pid]))
        return Peer()

    def _arrive(self, port, packet):
        # The tie rule: a departure at t precedes an offer at t.  The
        # evented model got that order from the calendar only when the
        # offer was pushed after the finish event, so the offer re-queues
        # itself behind every finish event already due at this instant.
        self.sim.schedule(0.0, self._offer, port, packet)

    def _offer(self, port, packet):
        admitted = self.ports[port].enqueue(packet)
        self.offers_seen.append((self.index[packet.pid], admitted, packet.ce,
                                 self.shared.used))


def new_port(sim, rate, delay, shared, marker, q, peer):
    return SwitchTxPort(sim, rate, delay, shared, marker, queue_id=q,
                        peer=peer)


OFFERS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 1500).map(float),
                  st.floats(0.0, 1500.0, allow_nan=False)),
        st.integers(0, 1),
        st.integers(40, 120),
        st.booleans()),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(OFFERS)
def test_matches_the_evented_port_it_replaced(offers):
    """Same deliveries, drops, marks and pool occupancy, offer by offer.

    With integer times, sizes and delay every finish instant is an exact
    float, so offers landing exactly on a finish are common, not rare.
    """
    old = World(EventedPort, offers)
    new = World(new_port, offers)
    assert new.arrivals == old.arrivals
    assert new.offers_seen == old.offers_seen
    for port_new, port_old in zip(new.ports, old.ports):
        stats = port_new.stats
        assert (stats.tx_packets, stats.dropped_packets,
                stats.marked_packets) == (port_old.tx_packets,
                                          port_old.dropped, port_old.marked)
    assert new.shared.used == old.shared.used == 0


# ---------------------------------------------------------------------------
# Reference model: the heap-settled host NIC the FIFO replaced
# ---------------------------------------------------------------------------
class HeapSettledNic:
    """Pre-change host port: every admitted packet on a finish-time heap,
    settled (tx counters) before each delivery and each read."""

    def __init__(self, sim, rate_bps, delay_s, peer):
        self.sim, self.rate_bps, self.delay_s = sim, rate_bps, delay_s
        self.peer = peer
        self.tx_packets = self.tx_bytes = 0
        self._free_at = 0.0
        self._heap, self._seq = [], 0

    def enqueue(self, packet, when=None):
        nbytes = packet.size
        start = max(self.sim.now if when is None else when, self._free_at)
        finish = self._free_at = start + nbytes * 8.0 / self.rate_bps
        self._seq += 1
        heapq.heappush(self._heap, (finish, self._seq, start, nbytes))
        self.sim.schedule_at(finish + self.delay_s, self._deliver, packet)
        return True

    def _settle(self):
        while self._heap and self._heap[0][0] <= self.sim.now:
            self.tx_packets += 1
            self.tx_bytes += heapq.heappop(self._heap)[3]

    def _deliver(self, packet):
        self._settle()
        self.peer.receive(packet)

    def read(self):
        self._settle()
        waiting = [e[3] for e in self._heap if e[2] > self.sim.now]
        return (self.tx_packets, self.tx_bytes, sum(waiting), len(waiting))


def read_fifo_nic(nic):
    stats = nic.stats
    return (stats.tx_packets, stats.tx_bytes, nic.queue_bytes,
            nic.queue_packets)


class NicWorld:
    """One host NIC driven by offers ``(time, jitter or None, wire size)``
    and read at ``reads``; 1 byte = 1 second, so ties are exact."""

    RATE, DELAY = 8.0, 7.0

    def __init__(self, make_nic, read, offers, reads):
        self.sim = Simulator()
        self.nic = make_nic(self.sim, self.RATE, self.DELAY, self)
        self.read = read
        self.arrivals, self.readings, self.index = [], [], {}
        for i, (at, jitter, size) in enumerate(offers):
            packet = data(size)
            self.index[packet.pid] = i
            self.sim.schedule_at(at, self._offer, packet, jitter)
        for at in reads:
            self.sim.schedule_at(at, self._read)
        self.sim.run()
        self._read()                             # and once after the last

    def receive(self, packet):
        self.arrivals.append((self.sim.now, self.index[packet.pid]))

    def _offer(self, packet, jitter):
        # Host.wire_out hands the NIC an arrival time at or after now.
        when = None if jitter is None else self.sim.now + jitter
        assert self.nic.enqueue(packet, when)

    def _read(self):
        self.readings.append((self.sim.now, self.read(self.nic)))


def times(upto):
    # Mostly whole seconds: reads and offers then land exactly on finish
    # and start instants in a good third of the examples.
    whole = st.integers(0, upto).map(float)
    return st.one_of(whole, whole, whole,
                     st.floats(0.0, float(upto), allow_nan=False))


NIC_OFFERS = st.lists(
    st.tuples(times(600), st.one_of(st.none(), times(60)),
              st.integers(40, 120)),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(NIC_OFFERS, st.lists(times(3000), max_size=30))
@example([(0.0, None, 100)], [100.0])            # read at the finish instant
@example([(0.0, 5.0, 100), (0.0, None, 60)], [5.0, 105.0, 165.0])
def test_fifo_nic_matches_the_heap_settled_nic_it_replaced(offers, reads):
    """Same delivery times and, at every read instant, the same
    ``tx_packets``/``tx_bytes``/``queue_bytes``/``queue_packets``."""
    from repro.net.link import HostTxPort
    old = NicWorld(HeapSettledNic, HeapSettledNic.read, offers, reads)
    new = NicWorld(
        lambda sim, rate, delay, peer: HostTxPort(sim, rate, delay, peer=peer),
        read_fifo_nic, offers, reads)
    assert new.arrivals == old.arrivals
    assert new.readings == old.readings
    assert new.readings[-1][1][0] == len(offers)
    assert not new.nic._fifo                     # drained, not accumulated


# ---------------------------------------------------------------------------
# Ties and readers between events
# ---------------------------------------------------------------------------
def make_switch_port(sim, peer, capacity=10_000, rate=8000.0, delay=0.0,
                     queue_id=0, shared=None):
    shared = shared or SharedBuffer(capacity, dt_alpha=100.0)
    marker = EcnMarker(enabled=False)
    port = SwitchTxPort(sim, rate, delay, shared, marker, queue_id=queue_id,
                        peer=peer)
    return port, shared


def test_arrival_exactly_at_a_finish_sees_the_buffer_released(sim, trap):
    # Room for one 1000 B packet; the second arrives the instant the
    # first leaves the wire (1000 B at 8 kb/s = exactly 1.0 s).
    port, shared = make_switch_port(sim, trap, capacity=1_500)
    verdicts = []
    assert port.enqueue(data(1000))
    assert not port.enqueue(data(1000))          # still held at t=0
    sim.schedule_at(1.0, lambda: verdicts.append(port.enqueue(data(1000))))
    sim.run()
    assert verdicts == [True]
    assert port.stats.tx_packets == 2 and port.stats.dropped_packets == 1


def test_equal_finish_times_settle_in_push_order(sim, trap):
    shared = SharedBuffer(10_000, dt_alpha=100.0)
    a, _ = make_switch_port(sim, trap, shared=shared, queue_id=0)
    b, _ = make_switch_port(sim, trap, shared=shared, queue_id=1)
    order = []
    for port in (a, b):
        real = port._depart
        port._depart = (lambda pkt, n, fin, port=port, real=real:
                        (order.append(port.queue_id), real(pkt, n, fin)))
    b.enqueue(data(1000))
    a.enqueue(data(1000))                        # same finish, pushed second
    sim.run(until=1.0)
    assert shared.used == 0
    assert order == [1, 0]


def test_readers_between_finish_and_arrival_see_the_departure(sim, trap):
    port, shared = make_switch_port(sim, trap, delay=0.5)
    for _ in range(3):
        port.enqueue(data(1000))                 # finish at 1.0, 2.0, 3.0
    assert (port.queue_packets, port.queue_bytes) == (2, 2000)
    assert shared.used == 3000
    sim.run(until=1.25)                          # finish <= t < finish + delay
    assert trap.packets == []                    # nothing has arrived yet ...
    assert shared.used == 2000                   # ... but the first has left
    assert shared.queue_bytes(0) == 2000
    assert (port.stats.tx_packets, port.stats.tx_bytes) == (1, 1000)
    assert (port.queue_packets, port.queue_bytes) == (1, 1000)
    sim.run(until=3.0)                           # run(until) is inclusive
    assert shared.used == 0 and port.stats.tx_packets == 3
    assert (port.queue_packets, port.queue_bytes) == (0, 0)
    assert len(trap.packets) == 2                # third arrives at 3.5


def test_host_jitter_arrival_time_is_honoured(sim, trap):
    from repro.net.link import HostTxPort
    nic = HostTxPort(sim, rate_bps=8000.0, delay_s=0.25, peer=trap)
    times = []
    trap.receive = lambda pkt: times.append(sim.now)  # bound at offer time
    nic.enqueue(data(1000), 0.5)                 # arrives 0.5, finishes 1.5
    nic.enqueue(data(1000), 0.75)                # queues behind: 2.5
    sim.run()
    assert times == [1.75, 2.75]
    assert sim.events_processed == 2             # one event per packet


# ---------------------------------------------------------------------------
# A port releases exactly what it admitted
# ---------------------------------------------------------------------------
def test_release_matches_admission_when_options_change_in_queue(
        sim, trap, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.is_enabled()
    port, shared = make_switch_port(sim, trap)
    packet = data(1000)
    assert port.enqueue(packet)
    admitted = shared.used
    packet.pack = PackOption(total_bytes=1, marked_bytes=0)   # grows on the wire
    assert packet.size > admitted
    sim.run()                                    # the audit runs per departure
    assert shared.used == 0
    assert port.stats.tx_bytes == admitted


# ---------------------------------------------------------------------------
# INT: the hop record is stamped with the departure instant
# ---------------------------------------------------------------------------
def test_int_residence_is_finish_minus_admit_when_settled_late(sim, trap):
    port, shared = make_switch_port(sim, None)   # no peer: nothing settles
    port.add_tap(IntStamper(port, "hop"))
    sim.run(until=0.25)
    first, second = data(1000), data(1000)
    port.enqueue(first)                          # admit 0.25, finish 1.25
    port.enqueue(second)                         # admit 0.25, finish 2.25
    sim.run(until=10.0)                          # long past both departures
    assert first.int_stack is None               # nobody has looked yet
    assert port.stats.tx_packets == 2            # a reader settles
    (rec1,), (rec2,) = first.int_stack, second.int_stack
    assert rec1[5] == 1.25 - 0.25 and rec2[5] == 2.25 - 0.25
    assert (rec1[3], rec2[3]) == (0, 1000)       # tx_bytes before own count


def test_delivered_packet_already_carries_its_hop_record(sim):
    seen = []

    class Peer:
        def receive(self, packet):
            seen.append(list(packet.int_stack))

    port, _shared = make_switch_port(sim, Peer(), delay=0.5)
    port.add_tap(IntStamper(port, "hop"))
    port.enqueue(data(1000))
    sim.run()
    assert len(seen) == 1 and seen[0][0][5] == 1.0


# ---------------------------------------------------------------------------
# Snapshots carry the unsettled departures
# ---------------------------------------------------------------------------
SERVICE = dict(n_hosts=4, epoch_s=0.01, arrival_rate_hz=4000.0,
               msg_sizes=[16_384, 65_536], msg_weights=[3, 1],
               peers=2, seed=5, guard=True)


def test_snapshot_with_unsettled_departures_restores_identically():
    svc = Service(ServiceConfig(**SERVICE))
    svc.run_epoch()
    queues = [svc.switch.shared.departures._heap] + [
        h.nic._fifo for h in svc.hosts]
    pending = [entry for q in queues for entry in q]
    assert pending, "epoch ended with nothing in flight"
    assert any(entry[0] <= svc.sim.now for entry in pending), \
        "epoch ended with every due departure already settled"
    clone = pickle.loads(pickle.dumps(svc))
    for _ in range(2):
        assert canonical_json(svc.run_epoch()) == canonical_json(
            clone.run_epoch())
    assert canonical_json(svc.result()) == canonical_json(clone.result())
    assert clone.switch.shared.used == svc.switch.shared.used
    for mine, theirs in zip(svc.switch.ports.values(),
                            clone.switch.ports.values()):
        assert (mine.stats.tx_packets, mine.stats.tx_bytes) == (
            theirs.stats.tx_packets, theirs.stats.tx_bytes)


# ---------------------------------------------------------------------------
# The pin: one calendar event per packet per hop
# ---------------------------------------------------------------------------
def events_per_host_packet(result):
    emitted = sum(h.tx_packets for h in result.topology.hosts.values())
    assert emitted > 1000
    return result.sim.events_processed / emitted


def test_dumbbell_costs_three_events_per_host_packet():
    # host -> left switch -> right switch -> host: three hops, and the
    # timers, probes and app callbacks fit in the remaining 0.1.
    result = run_dumbbell(DCTCP, pairs=5, duration=0.02, mtu=1500, seed=1)
    assert events_per_host_packet(result) <= 3.1


def test_incast_costs_two_events_per_host_packet():
    result = run_incast(ACDC, 32, duration=0.02, mtu=1500, seed=1)
    assert events_per_host_packet(result) <= 2.1
