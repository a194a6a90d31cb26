"""Unit tests for the datapath watchdog (repro.guard.watchdog).

The watchdog only reads ``vswitch.sim`` and ``vswitch.table``, so a
minimal fake vSwitch suffices — ticks are driven by running the real
simulator clock.
"""

from repro.core import FlowPolicy
from repro.guard import DatapathWatchdog, GuardConfig
from repro.guard.watchdog import INTERVAL_S


class FakeEntry:
    def __init__(self, key, beta=1.0, enforced=True):
        self.key = key
        self.policy = FlowPolicy(algorithm="dctcp" if enforced else "none",
                                 beta=beta)
        self.shed = False


class FakeVswitch:
    def __init__(self, sim):
        self.sim = sim
        self.table = []


def make(sim, entries, max_flow_entries):
    cfg = GuardConfig(max_flow_entries=max_flow_entries)
    vswitch = FakeVswitch(sim)
    vswitch.table = entries
    events = []

    def notify(kind, entry, **detail):
        events.append((kind, entry.key, detail))

    wd = DatapathWatchdog(cfg, vswitch, notify)
    wd.start()
    return wd, vswitch, events


def tick(sim, n=1):
    sim.run(until=sim.now + n * INTERVAL_S + 1e-6)


def test_under_budget_never_sheds(sim):
    entries = [FakeEntry(("h", i, "r", 1)) for i in range(10)]
    wd, vswitch, events = make(sim, entries, max_flow_entries=10)
    tick(sim, 5)
    assert wd.ticks >= 5
    assert wd.sheds == 0 and events == []


def test_table_pressure_sheds_lowest_beta_first(sim):
    entries = [FakeEntry(("h", i, "r", 1), beta=0.1 * (i + 1))
               for i in range(8)]
    wd, vswitch, events = make(sim, entries, max_flow_entries=2)
    tick(sim)
    # step = 25% of 8 candidates = 2 shed, smallest beta first.
    assert [e.shed for e in entries] == [True, True] + [False] * 6
    assert [k for kind, k, d in events] == [("h", 0, "r", 1), ("h", 1, "r", 1)]
    assert all(kind == "guard.shed" for kind, k, d in events)
    assert events[0][2] == {"reason": "flow_table", "flow_entries": 8}


def test_unenforced_entries_are_never_shed(sim):
    entries = [FakeEntry(("h", 0, "r", 1), enforced=False),
               FakeEntry(("h", 1, "r", 1))]
    wd, vswitch, events = make(sim, entries, max_flow_entries=0)
    tick(sim)
    assert entries[0].shed is False
    assert entries[1].shed is True


def test_hysteresis_unsheds_highest_priority_first(sim):
    entries = [FakeEntry(("h", i, "r", 1), beta=0.1 * (i + 1))
               for i in range(8)]
    wd, vswitch, events = make(sim, entries, max_flow_entries=7)
    tick(sim)  # 8 > 7: shed step = 25% of 8 candidates = 2 (h0, h1)
    assert wd.sheds == 2
    assert entries[0].shed and entries[1].shed
    # In the hysteresis band (7 x 0.7 = 4.9 < entries <= 7): neither
    # shed nor re-admit.
    for n in (7, 5):
        vswitch.table = entries[:n]
        tick(sim)
        assert wd.sheds == 2 and wd.unsheds == 0
    # Load drops below the resume fraction: re-admit step by step,
    # highest beta among the shed first.
    vswitch.table = entries[:4]
    tick(sim)
    assert wd.unsheds == 1
    assert entries[1].shed is False  # h1 (beta 0.2) before h0 (beta 0.1)
    assert entries[0].shed is True
    tick(sim)
    assert entries[0].shed is False
    kinds = [kind for kind, k, d in events]
    assert kinds == ["guard.shed", "guard.shed", "guard.unshed",
                     "guard.unshed"]


def test_stop_halts_ticks(sim):
    wd, vswitch, events = make(sim, [], max_flow_entries=1)
    tick(sim, 2)
    wd.stop()
    seen = wd.ticks
    tick(sim, 3)
    assert wd.ticks == seen
