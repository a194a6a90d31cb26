"""Unit tests for the datapath flight recorder (repro.obs.recorder)."""

from collections import Counter

from conftest import sanitizing
from repro.core import AcdcVswitch
from repro.obs import (INFO, WARNING, FlightRecorder, ObsContext, TraceConfig,
                       format_flow, read_jsonl)
from repro.obs.__main__ import main as obs_cli
from repro.obs.recorder import DEFAULT_CAPACITY
from repro.workloads.apps import Sink

FLOW = ("s1", 10000, "r1", 5000)


class FakeSim:
    def __init__(self):
        self.now = 0.0


def test_note_and_records_are_trace_shaped():
    sim = FakeSim()
    rec = FlightRecorder(sim, name="h1")
    sim.now = 0.5
    rec.on_decision("rwnd.rewrite", FLOW, INFO,
                    {"wnd_bytes": 3000, "rewritten": True})
    assert len(rec) == 1 and rec.noted == 1
    (record,) = rec.records()
    assert record == {"t": 0.5, "type": "rwnd.rewrite", "sev": "info",
                      "component": "h1", "flow": "s1:10000>r1:5000",
                      "wnd_bytes": 3000, "rewritten": True}


def test_ring_keeps_only_the_tail():
    rec = FlightRecorder(FakeSim())
    for i in range(DEFAULT_CAPACITY + 4):
        rec.on_decision("flow.state", FLOW, INFO, {"state": str(i)})
    assert len(rec) == DEFAULT_CAPACITY and rec.noted == DEFAULT_CAPACITY + 4
    assert [r["state"] for r in rec.records()][:2] == ["4", "5"]


def test_ring_samples_ecn_marks_like_the_bus(two_hosts):
    """Regression: the ring kept every per-segment ``ecn.mark`` the bus
    samples 1 in 16, so marks held half its slots and a dump of this
    run spanned only 152 us of ACK history."""
    sim, topo, a, b, sw = two_hosts
    with sanitizing(True):
        vsw = AcdcVswitch(a)
    a.attach_vswitch(vsw)
    with sanitizing(False):
        b.attach_vswitch(AcdcVswitch(b))
    Sink(b, 7000)
    a.connect(b.addr, 7000).send_forever()
    sim.run(until=0.05)
    records = vsw.flight.records()
    assert len(records) == DEFAULT_CAPACITY
    marks = Counter(r["type"] for r in records)["ecn.mark"]
    assert 0 < marks < len(records) / 8
    assert records[-1]["t"] - records[0]["t"] >= 1.5 * 152e-6


def test_a_traced_ring_samples_with_its_bus(two_hosts):
    sim, topo, a, b, sw = two_hosts
    obs = ObsContext(sim, TraceConfig(sample={"ecn.mark": 4}))
    with sanitizing(True):
        vsw = AcdcVswitch(a, obs=obs)
    assert vsw.flight.sample is obs.bus.config.sample
    rec = FlightRecorder(FakeSim())
    rec.sample = {"ecn.mark": 4}
    for _ in range(9):
        rec.on_decision("ecn.mark", FLOW, INFO, {"direction": "egress"})
    assert len(rec) == 3 and rec.noted == 9


class MarkLog:
    """A vSwitch tap that keeps every ``ecn.mark`` decision offered."""

    def __init__(self):
        self.marks = []

    def on_decision(self, type_, flow, severity, fields):
        if type_ == "ecn.mark":
            self.marks.append((flow, fields["direction"]))


def test_the_ring_samples_per_vswitch_so_it_is_not_the_bus_tail(
        three_hosts):
    """Two traced, sanitized senders share one bus: each ring keeps its
    vSwitch's every 16th mark, the bus every 16th of both, so a ring's
    marks are mostly not on the bus."""
    sim, topo, a, b, c, sw = three_hosts
    obs = ObsContext(sim)
    logs = {}
    for host in (a, b, c):
        with sanitizing(True):
            vsw = AcdcVswitch(host, obs=obs)
        host.attach_vswitch(vsw)
        vsw.add_tap(logs.setdefault(host.addr, MarkLog()))
    Sink(c, 7000)
    for host in (a, b):
        host.connect(c.addr, 7000).send_forever()
    sim.run(until=0.02)
    n = obs.bus.config.sample["ecn.mark"]
    on_bus = {(r["t"], r["flow"]) for r in obs.bus.records()
              if r["type"] == "ecn.mark"}
    held = off_bus = 0
    for host in (a, b):
        ring = [r for r in host.vswitch.flight.records()
                if r["type"] == "ecn.mark"]
        kept = logs[host.addr].marks[::n]   # this vSwitch's 1-in-n
        assert 0 < len(ring) <= len(kept)
        assert [(r["flow"], r["direction"]) for r in ring] == [
            (format_flow(flow), direction)
            for flow, direction in kept[-len(ring):]]
        held += len(ring)
        off_bus += sum((r["t"], r["flow"]) not in on_bus for r in ring)
    assert off_bus > held / 2


def test_dump_writes_jsonl_to_dir_arg(tmp_path):
    rec = FlightRecorder(FakeSim(), name="h/1")  # slash must be sanitised
    rec.on_decision("policer.drop", FLOW, WARNING,
                    {"reason": "window_overrun"})
    path = rec.dump(dir_path=tmp_path, tag="window_overrun")
    assert path.startswith(str(tmp_path))
    assert "h-1" in path and path.endswith(".jsonl")
    (record,) = read_jsonl(path)
    assert record["type"] == "policer.drop"
    assert record["reason"] == "window_overrun"


def test_dump_honours_repro_obs_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "dumps"))
    rec = FlightRecorder(FakeSim(), name="h2")
    rec.on_decision("flow.state", FLOW, INFO, {"state": "restart"})
    path = rec.dump()
    assert path.startswith(str(tmp_path / "dumps"))
    assert len(read_jsonl(path)) == 1


def test_dump_serials_never_collide(tmp_path):
    rec = FlightRecorder(FakeSim(), name="h3")
    rec.on_decision("flow.state", FLOW, INFO, {"state": "x"})
    assert rec.dump(dir_path=tmp_path) != rec.dump(dir_path=tmp_path)


def test_same_named_recorders_never_overwrite_each_other(tmp_path):
    """Regression: two same-named vSwitches (e.g. two services in one
    process) dumping in the same pid/serial window used to race one
    global serial; with per-recorder serials they would collide outright
    if dump() did not O_EXCL-and-retry to a free name."""
    sim = FakeSim()
    first = FlightRecorder(sim, name="h1")
    second = FlightRecorder(sim, name="h1")
    first.on_decision("flow.state", FLOW, INFO, {"state": "a"})
    second.on_decision("flow.state", FLOW, INFO, {"state": "b"})
    path_a = first.dump(dir_path=tmp_path)
    path_b = second.dump(dir_path=tmp_path)
    assert path_a != path_b
    (rec_a,) = read_jsonl(path_a)
    (rec_b,) = read_jsonl(path_b)
    assert rec_a["state"] == "a" and rec_b["state"] == "b"


def test_restored_recorder_serial_reset_cannot_overwrite(tmp_path):
    """Regression: a snapshot-restored vSwitch carries its recorder's
    serial from checkpoint time; earlier incarnations' later dumps must
    survive the replayed serials."""
    import pickle

    rec = FlightRecorder(FakeSim(), name="h2")
    rec.on_decision("flow.state", FLOW, INFO, {"state": "pre"})
    frozen = pickle.dumps(rec)           # checkpoint before any dump
    first = rec.dump(dir_path=tmp_path)  # original incarnation dumps

    restored = pickle.loads(frozen)      # serial rewinds to 0 inside
    restored.on_decision("flow.state", FLOW, INFO, {"state": "post"})
    second = restored.dump(dir_path=tmp_path)
    assert second != first
    (kept,) = read_jsonl(first)
    assert kept["state"] == "pre"  # the original dump was not clobbered


def test_a_dumped_resurrect_keeps_its_warning_severity(tmp_path, capsys):
    """Regression: the ring kept no severity and every dumped record read
    "info", so a resurrect (WARNING on the bus) vanished from
    ``timeline --min-sev warning``."""
    sim = FakeSim()
    rec = FlightRecorder(sim, name="h1")
    rec.on_decision("flow.state", FLOW, INFO, {"state": "insert"})
    sim.now = 0.25
    rec.on_decision("flow.state", FLOW, WARNING, {"state": "resurrect"})
    rec.on_decision("flow.state", FLOW, WARNING, {"state": "restart"})
    path = rec.dump(dir_path=tmp_path)
    assert [(r["state"], r["sev"]) for r in read_jsonl(path)] == [
        ("insert", "info"), ("resurrect", "warning"), ("restart", "warning")]
    capsys.readouterr()
    assert obs_cli(["timeline", path, "--min-sev", "warning"]) == 0
    shown = capsys.readouterr().out
    assert "resurrect" in shown and "restart" in shown
    assert "insert" not in shown
