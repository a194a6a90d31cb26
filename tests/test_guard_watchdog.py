"""Unit tests for the datapath watchdog (repro.guard.watchdog).

The watchdog only reads ``vswitch.sim``, ``vswitch.ops`` and
``vswitch.table``, so a minimal fake vSwitch suffices — ticks are driven
by running the real simulator clock.
"""

from repro.core import FlowPolicy
from repro.core.ops import OpsCounter
from repro.guard import DatapathWatchdog, GuardConfig
from repro.sim import Simulator


class FakeEntry:
    def __init__(self, key, beta=1.0, enforced=True):
        self.key = key
        self.policy = FlowPolicy(algorithm="dctcp" if enforced else "none",
                                 beta=beta)
        self.shed = False


class FakeVswitch:
    def __init__(self, sim):
        self.sim = sim
        self.ops = OpsCounter()
        self.table = []


def make(sim, entries, **over):
    over.setdefault("shed_step_fraction", 0.5)
    over.setdefault("resume_fraction", 0.5)
    cfg = GuardConfig(watchdog_interval_s=0.01, **over)
    vswitch = FakeVswitch(sim)
    vswitch.table = entries
    events = []

    def notify(kind, entry, **detail):
        events.append((kind, entry.key, detail))

    wd = DatapathWatchdog(cfg, vswitch, notify)
    wd.start()
    return wd, vswitch, events


def tick(sim, n=1):
    sim.run(until=sim.now + n * 0.01 + 1e-6)


def test_no_budgets_never_sheds(sim):
    entries = [FakeEntry(("h", i, "r", 1)) for i in range(10)]
    wd, vswitch, events = make(sim, entries)
    tick(sim, 5)
    assert wd.ticks >= 5
    assert wd.sheds == 0 and events == []


def test_table_pressure_sheds_lowest_beta_first(sim):
    entries = [FakeEntry(("h", i, "r", 1), beta=0.1 * (i + 1))
               for i in range(4)]
    wd, vswitch, events = make(sim, entries, max_flow_entries=2)
    tick(sim)
    # step = 50% of 4 candidates = 2 shed, smallest beta first.
    assert [e.shed for e in entries] == [True, True, False, False]
    assert [k for kind, k, d in events] == [("h", 0, "r", 1), ("h", 1, "r", 1)]
    assert all(kind == "guard.shed" for kind, k, d in events)
    assert events[0][2]["reason"] == "flow_table"


def test_unenforced_entries_are_never_shed(sim):
    entries = [FakeEntry(("h", 0, "r", 1), enforced=False),
               FakeEntry(("h", 1, "r", 1))]
    wd, vswitch, events = make(sim, entries, max_flow_entries=0)
    tick(sim)
    assert entries[0].shed is False
    assert entries[1].shed is True


def test_ops_budget_sheds_on_per_packet_delta(sim):
    entries = [FakeEntry(("h", i, "r", 1)) for i in range(2)]
    wd, vswitch, events = make(sim, entries, max_ops_per_packet=3.0)
    # 2 ops per packet: under budget.
    vswitch.ops.packets_egress = 10
    vswitch.ops.record("seq_update", 20)
    tick(sim)
    assert wd.sheds == 0
    # Next interval: 10 ops per packet — over budget.
    vswitch.ops.packets_egress = 20
    vswitch.ops.record("cc_update", 100)
    tick(sim)
    assert wd.sheds == 1
    assert events[0][2]["reason"] == "ops_budget"


def test_hysteresis_unsheds_highest_priority_first(sim):
    entries = [FakeEntry(("h", i, "r", 1), beta=0.1 * (i + 1))
               for i in range(4)]
    wd, vswitch, events = make(sim, entries, max_flow_entries=3,
                               resume_fraction=0.9)
    tick(sim)  # 4 > 3: shed step = 50% of 4 candidates = 2 (h0, h1)
    assert wd.sheds == 2
    assert entries[0].shed and entries[1].shed
    # In the hysteresis band (2.7 < 3 <= 3): neither shed nor re-admit.
    vswitch.table = entries[:3]
    tick(sim)
    assert wd.sheds == 2 and wd.unsheds == 0
    # Load drops below the resume fraction: re-admit step by step,
    # highest beta among the shed first.
    vswitch.table = entries[:2]
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
