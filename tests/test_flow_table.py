"""Unit tests for the flow table (§4 lifecycle: SYN create, FIN + GC)."""

from repro.core.flow_table import (FLOW_ENTRY_BYTES, GC_INTERVAL_S,
                                   IDLE_TIMEOUT_S, FlowTable)
from repro.core.policy import FlowPolicy

KEY = ("a", 1, "b", 2)
KEY2 = ("b", 2, "a", 1)


def test_lookup_miss_and_hit(sim):
    table = FlowTable(sim)
    assert table.lookup(KEY) is None
    entry = table.ensure(KEY, FlowPolicy(), mss=1460)
    assert table.lookup(KEY) is entry
    assert table.lookups == 3
    assert table.hits == 1  # the ensure's internal lookup missed
    assert table.inserts == 1


def test_ensure_is_idempotent(sim):
    table = FlowTable(sim)
    a = table.ensure(KEY, FlowPolicy(), mss=1460)
    b = table.ensure(KEY, FlowPolicy(beta=0.5), mss=1460)
    assert a is b
    assert a.policy.beta == 1.0  # first policy wins
    assert table.inserts == 1


def test_two_directions_are_distinct_entries(sim):
    table = FlowTable(sim)
    table.ensure(KEY, FlowPolicy(), mss=1460)
    table.ensure(KEY2, FlowPolicy(), mss=1460)
    assert len(table) == 2


def test_remove(sim):
    table = FlowTable(sim)
    table.ensure(KEY, FlowPolicy(), mss=1460)
    table.remove(KEY)
    assert table.lookup(KEY) is None
    assert table.removes == 1
    table.remove(KEY)  # idempotent
    assert table.removes == 1


def test_gc_reclaims_finished_idle_flows(sim):
    assert GC_INTERVAL_S == 1.0
    table = FlowTable(sim)
    table.start_gc()
    table.ensure(KEY, FlowPolicy(), mss=1460)
    table.mark_fin(KEY)
    sim.run(until=1.5)
    assert KEY in table.entries  # not idle long enough yet (1 s grace)
    sim.run(until=2.5)
    assert KEY not in table.entries


def test_gc_keeps_active_flows(sim):
    table = FlowTable(sim)
    table.start_gc()
    entry = table.ensure(KEY, FlowPolicy(), mss=1460)
    table.mark_fin(KEY)

    def refresh():
        entry.touch(sim.now)
        sim.schedule(0.3, refresh)

    refresh()
    sim.run(until=6.0)
    assert KEY in table.entries


def test_gc_reclaims_long_idle_flows_without_fin(sim):
    assert IDLE_TIMEOUT_S == 30.0
    table = FlowTable(sim)
    table.start_gc()
    table.ensure(KEY, FlowPolicy(), mss=1460)
    sim.run(until=IDLE_TIMEOUT_S - 1.0)
    assert KEY in table.entries
    sim.run(until=IDLE_TIMEOUT_S + 2 * GC_INTERVAL_S)
    assert KEY not in table.entries


def test_stop_gc(sim):
    table = FlowTable(sim)
    table.start_gc()
    table.stop_gc()
    table.ensure(KEY, FlowPolicy(), mss=1460)
    sim.run(until=3 * IDLE_TIMEOUT_S)
    assert KEY in table.entries


def test_memory_accounting_matches_prototype(sim):
    table = FlowTable(sim)
    for i in range(10):
        table.ensure(("a", i, "b", 2), FlowPolicy(), mss=1460)
    assert table.memory_bytes() == 10 * FLOW_ENTRY_BYTES


def test_iteration(sim):
    table = FlowTable(sim)
    table.ensure(KEY, FlowPolicy(), mss=1460)
    table.ensure(KEY2, FlowPolicy(), mss=1460)
    assert {e.key for e in table} == {KEY, KEY2}


def test_entry_carries_all_role_state(sim):
    table = FlowTable(sim)
    entry = table.ensure(KEY, FlowPolicy(beta=0.5, max_rwnd=10_000), mss=1460)
    assert entry.conntrack is not None
    assert entry.vswitch_cc.beta == 0.5
    assert entry.vswitch_cc.max_wnd == 10_000
    assert entry.receiver_feedback.total_bytes == 0
    assert entry.enforcer.rewrites == 0
