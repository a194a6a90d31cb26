"""The vSwitch's taps (DESIGN.md §3): one ordered tuple, one hook vocabulary.

Everything optional on the AC/DC datapath — trace bus, flight ring,
sanitizer, window callback, guard, INT — is a tap reached through
``AcdcVswitch.HOOKS``.  These tests pin the contract: hooks fire in §3
order with their documented arguments, only ``on_egress_data`` decides
anything, a tap pays only for the hooks it implements, taps observe
without changing a run, INT metadata never reaches a VM, datapath
methods reach their collaborators through hooks alone, and the bus tap
and the flight ring are armed by tracing and sanitizing respectively.
"""

import ast
import gc
import inspect
import sys
from pathlib import Path

import pytest

from conftest import sanitizing
from repro.analysis import sanitize
from repro.core import AcdcConfig, AcdcVswitch, FlowPolicy, PolicyEngine
from repro.core import acdc
from repro.experiments import common
from repro.experiments.common import ACDC
from repro.experiments.hybrid import (DEFAULT_BACKGROUND,
                                     hybrid_dumbbell_scenario)
from repro.experiments.runners import (dumbbell_scenario, incast_scenario,
                                      run_dumbbell)
from repro.metrics import WindowLogger
from repro.net.host import Host
from repro.net.link import PORT_HOOKS
from repro.net.packet import PackOption, make_data_packet
from repro.obs import (FlightRecorder, IntTelemetry, ObsContext, PortObs,
                       VswitchObs)
from repro.sim import Simulator
from repro.workloads.apps import Sink

SRC = Path(__file__).resolve().parent.parent / "src"
SIM_RUN = Simulator.run


@pytest.fixture
def unsanitized():
    """Taps-off means sanitizer-off too, whatever REPRO_SANITIZE says."""
    sanitize.enable(False)
    yield
    sanitize.enable(None)


# ---------------------------------------------------------------------------
# (a) Hook order and arguments on a real transfer
# ---------------------------------------------------------------------------
class Recorder:
    """Implements every hook; checks each call's arguments as it happens
    and logs the hook names in call order."""

    def __init__(self, vswitch):
        self.vsw = vswitch
        self.log = []
        self.packs_reported = 0
        self.facks_tracked = 0

    def _entry_of(self, key):
        return self.vsw.table.entries[key]

    def on_decision(self, type_, flow, severity, fields):
        assert type_ in ("flow.state", "ecn.mark")
        assert isinstance(severity, int) and isinstance(fields, dict)
        self.log.append("on_decision")

    def on_ingress_ack(self, vswitch, entry, pkt):
        assert vswitch is self.vsw and entry.key == pkt.reverse_key()
        self.log.append("on_ingress_ack")

    def on_tracked(self, entry, pack, prev_una, prev_nxt, total, marked):
        assert entry is self._entry_of(entry.key)
        assert pack is None or isinstance(pack, PackOption)
        assert 0 <= marked <= total
        if pack is None:
            assert (total, marked) == (0, 0)
        self.log.append("on_tracked")

    def on_egress_data(self, entry, pkt):
        assert entry.key == pkt.flow_key() and pkt.payload_len > 0
        assert pkt.ect  # marked before the verdict
        self.log.append("on_egress_data")
        return True

    def on_egress_ack(self, entry, ack):
        assert entry.key == ack.reverse_key() and ack.payload_len == 0
        self.packs_reported += ack.pack is not None
        self.log.append("on_egress_ack")

    def on_window(self, key, now, wnd):
        assert now == self.vsw.sim.now
        assert wnd == self._entry_of(key).enforced_wnd
        self.log.append("on_window")

    def on_ack_signals(self, entry, pkt, verdict, total, marked):
        assert entry.key == pkt.reverse_key() and verdict.newly_acked >= 0
        self.facks_tracked += bool(pkt.is_fack) and total > 0
        self.log.append("on_ack_signals")

    def on_advertised(self, entry, pkt, wnd, rewritten):
        assert isinstance(rewritten, bool) and wnd == entry.enforced_wnd
        assert pkt.pack is None  # the feedback never reaches the VM
        self.log.append("on_advertised")

    def on_ingress_data(self, vswitch, entry, pkt, counted):
        assert vswitch is self.vsw and entry.key == pkt.flow_key()
        assert counted is True
        self.log.append("on_ingress_data")

    def on_timeout(self, entry, wnd):
        self.log.append("on_timeout")


ACK_PATH = ("on_ingress_ack", "on_tracked", "on_window", "on_ack_signals")


def expected_hooks(direction, pkt, decisions):
    """The §3 order of hooks one packet meets (``decisions``: the
    flow-insert/ECN-mark decisions it may carry)."""
    if pkt.syn:
        return decisions + (("on_ingress_ack",) if direction == "ingress"
                            else ())
    if direction == "egress":
        if pkt.payload_len:
            return ("on_tracked",) + decisions + ("on_egress_data",)
        return ("on_egress_ack",)
    if pkt.is_fack:
        return ACK_PATH
    if pkt.payload_len:
        return ACK_PATH + ("on_advertised", "on_ingress_data")
    return ACK_PATH + ("on_advertised",)


def recorded_transfer(two_hosts):
    """a <-> b both ways; b reports with FACKs, a with PACKs."""
    sim, topo, a, b, sw = two_hosts
    vsw_a = AcdcVswitch(a)
    vsw_b = AcdcVswitch(b, config=AcdcConfig(feedback_mode="fack-only"))
    calls = []
    for host, vsw in ((a, vsw_a), (b, vsw_b)):
        host.attach_vswitch(vsw)
        tap = Recorder(vsw)
        vsw.add_tap(tap)
        for direction in ("egress", "ingress"):
            def wrapped(pkt, inner=getattr(vsw, direction), tap=tap,
                        direction=direction):
                start = len(tap.log)
                out = inner(pkt)
                calls.append((direction, pkt, tuple(tap.log[start:])))
                return out
            setattr(vsw, direction, wrapped)
    Sink(b, 7000)
    Sink(a, 7001)
    forward = a.connect(b.addr, 7000)
    forward.send(60_000)
    reverse = b.connect(a.addr, 7001)
    reverse.send(30_000)
    sim.run(until=0.05)
    assert forward.bytes_acked_total == 60_000
    assert reverse.bytes_acked_total == 30_000
    return sim, vsw_a, vsw_b, calls, forward


def test_hooks_fire_in_section3_order_with_documented_arguments(two_hosts):
    sim, vsw_a, vsw_b, calls, _ = recorded_transfer(two_hosts)
    kinds = set()
    for direction, pkt, hooks in calls:
        decisions = tuple(h for h in hooks if h == "on_decision")
        assert hooks == expected_hooks(direction, pkt, decisions), (
            direction, pkt)
        kinds.add((direction, "syn" if pkt.syn else "fack" if pkt.is_fack
                   else "data" if pkt.payload_len else "ack"))
    assert kinds == {(d, k) for d in ("egress", "ingress")
                     for k in ("syn", "data", "ack")} | {("ingress", "fack")}
    # Every hook call happened inside a packet's pass: no stray timeouts.
    rec_a, rec_b = vsw_a.taps[-1], vsw_b.taps[-1]
    assert len(rec_a.log) + len(rec_b.log) == sum(len(h) for _, _, h in calls)
    # a's receiver module piggybacked PACKs; b's fack-only one sent FACKs
    # whose feedback a's sender module consumed.
    assert rec_a.packs_reported > 0 and rec_a.facks_tracked > 0
    assert rec_b.packs_reported == 0


class Veto:
    def on_egress_data(self, entry, pkt):
        return False


def test_egress_data_verdict_drops_with_the_guard_drop_op_counts(two_hosts):
    sim, vsw_a, vsw_b, calls, conn = recorded_transfer(two_hosts)
    recorder = vsw_a.taps[-1]
    vsw_a.add_tap(Veto())
    before, log = dict(vsw_a.ops.counts), len(recorder.log)
    pkt = make_data_packet(conn.key(), conn.snd_nxt, 1000)
    assert vsw_a.egress(pkt) is None
    assert recorder.log[log:] == ["on_tracked", "on_decision",
                                  "on_egress_data"]
    moved = {op: n - before[op] for op, n in vsw_a.ops.counts.items()
             if n != before[op]}
    # What a guard drop costs: forwarded, tracked, ECT-marked, dropped
    # before the policer and the inactivity timer.
    assert moved == {"flow_lookup": 1, "forward": 1, "seq_update": 1,
                     "ecn_mark": 1, "checksum_recalc": 1}


def test_a_tap_binds_only_the_hooks_it_implements(two_hosts):
    sim, topo, a, b, sw = two_hosts
    with sanitizing(False):
        vsw = AcdcVswitch(a, window_cb=WindowLogger().acdc_callback)
    assert vsw._on_window == (vsw.taps[0].on_window,)
    assert all(getattr(vsw, "_" + hook) == () for hook in acdc.HOOKS
               if hook != "on_window")
    vsw.add_tap(Veto())
    assert len(vsw.taps) == 2 and len(vsw._on_egress_data) == 1
    assert len(acdc.HOOKS) == len(set(acdc.HOOKS)) <= 10


# ---------------------------------------------------------------------------
# Frame budget (the test_frame_budget.py recipe)
# ---------------------------------------------------------------------------
def frames_per_switch_packet(monkeypatch=None, run_only=False, **kwargs):
    """Python ``call`` events per switch-transmitted packet of the
    frame-budget dumbbell; ``run_only`` counts inside ``Simulator.run``
    only (set-up excluded)."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # Garbage left by an earlier run would otherwise be finalized inside
    # the profiled one, and its finalizers' frames counted with it.
    gc.collect()
    if run_only:
        def profiled_run(self, *args, **kw):
            sys.setprofile(profiler)
            try:
                return SIM_RUN(self, *args, **kw)
            finally:
                sys.setprofile(None)
        monkeypatch.setattr(Simulator, "run", profiled_run)
    else:
        sys.setprofile(profiler)
    try:
        result = run_dumbbell(ACDC, pairs=5, duration=0.02, mtu=1500,
                              rate_bps=1e9, rtt_probe=True, seed=1, **kwargs)
    finally:
        sys.setprofile(None)
    packets = sum(port.stats.tx_packets
                  for switch in result.topology.switches.values()
                  for port in switch.ports.values())
    return calls / packets


def test_a_tap_without_hooks_costs_no_frame(monkeypatch, unsanitized):
    bare = frames_per_switch_packet(monkeypatch, run_only=True)

    class WithInertTap(AcdcVswitch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.add_tap(object())

    monkeypatch.setattr(common, "AcdcVswitch", WithInertTap)
    assert frames_per_switch_packet(monkeypatch, run_only=True) == bare


#: configuration -> frames per switch packet at the parent of the tap
#: tuple (taps-off, 36.26, is pinned by test_frame_budget.py).
CEILINGS = {
    "obs": (41.69, lambda: {"obs": ObsContext()}),
    "obs+int": (56.35, lambda: {"obs": ObsContext(),
                                "int_tel": IntTelemetry()}),
    "int": (50.42, lambda: {"int_tel": IntTelemetry()}),
    "window_cb": (36.76, lambda: {"window_cb": WindowLogger().acdc_callback}),
}


@pytest.mark.parametrize("config", CEILINGS)
def test_tapped_configurations_stay_within_the_parent_frames(config,
                                                              unsanitized):
    ceiling, taps = CEILINGS[config]
    assert frames_per_switch_packet(**taps()) <= ceiling


# ---------------------------------------------------------------------------
# (d) Taps observe: a fully tapped run is the untapped run
# ---------------------------------------------------------------------------
def observables(result):
    ports = [(name, port.stats.tx_packets, port.stats.tx_bytes,
              port.stats.dropped_packets, port.stats.marked_packets)
             for name, switch in sorted(result.topology.switches.items())
             for port in switch.ports.values()]
    return (result.tputs_bps, result.rtt_samples, ports,
            result.sim.events_processed, result.sim.events_scheduled)


#: The runs the taps are checked against: the stock dumbbell, an
#: incast (one deep shared queue) and a hybrid dumbbell (INT and the
#: trace bus beside the fluid coupling).
TAPPED_RUNS = {
    "dumbbell": lambda: dumbbell_scenario(
        ACDC, pairs=3, duration=0.02, mtu=1500, rate_bps=1e9, seed=2),
    "incast": lambda: incast_scenario(
        ACDC, 6, duration=0.02, mtu=1500, rate_bps=1e9, seed=2),
    "hybrid_dumbbell": lambda: hybrid_dumbbell_scenario(
        ACDC, fg_pairs=2, background=DEFAULT_BACKGROUND, duration=0.02,
        rate_bps=1e9, seed=2, bg_start_at=0.002, rtt_probe=True),
}


@pytest.mark.parametrize("run", TAPPED_RUNS)
def test_taps_do_not_change_the_run(run, unsanitized):
    scenario = TAPPED_RUNS[run]()
    bare = common.Testbed(scenario).run()
    logger = WindowLogger()
    with sanitizing(True):
        tapped = common.Testbed(
            scenario, common.Taps(obs=ObsContext(), int_tel=IntTelemetry(),
                                  window_cb=logger.acdc_callback)).run()
    assert all(len(v.taps) == 5 for v in tapped.vswitches.values())
    assert logger.samples and tapped.telemetry["trace"]["recorded"] > 0
    assert observables(tapped) == observables(bare)
    assert tapped.fluid == bare.fluid


# ---------------------------------------------------------------------------
# INT metadata never reaches a VM
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["dctcp", "none"])
def test_no_int_metadata_is_delivered_to_a_vm(algorithm, monkeypatch):
    delivered = []
    original = Host.deliver

    def deliver(self, packet):
        delivered.append((packet.syn, packet.payload_len,
                          packet.int_stack, packet.int_echo))
        original(self, packet)

    monkeypatch.setattr(Host, "deliver", deliver)
    tel = IntTelemetry()
    run_dumbbell(ACDC, pairs=2, duration=0.005, rate_bps=1e9, seed=1,
                 int_tel=tel,
                 policy=PolicyEngine(FlowPolicy(algorithm=algorithm)))
    assert tel.snapshot()["stamped"] > 0
    assert any(syn for syn, *_ in delivered)
    assert any(not syn and not length for syn, length, *_ in delivered)
    assert [d for d in delivered if d[2] is not None or d[3] is not None] == []
    if algorithm == "dctcp":  # absorbed where the receiver module counts
        assert tel.snapshot()["stacks_absorbed"] > 0
    else:
        assert tel.snapshot()["stacks_absorbed"] == 0


# ---------------------------------------------------------------------------
# (e) Datapath methods reach collaborators through hooks only
# ---------------------------------------------------------------------------
def test_only_construction_names_the_collaborators():
    source = inspect.getsource(AcdcVswitch)
    named = {"sanitizer", "flight", "trace", "window_cb", "guard", "int_tel"}
    offenders = []
    for method in ast.parse(source).body[0].body:
        if (not isinstance(method, ast.FunctionDef)
                or method.name in ("__init__", "add_tap")):
            continue
        for node in ast.walk(method):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in named:
                offenders.append(f"{method.name}: {name}")
    assert offenders == []
    assert "flight.note" not in (SRC / "repro/core/acdc.py").read_text()


# ---------------------------------------------------------------------------
# (f) Arming: the bus tap under tracing, the flight ring under sanitizing
# ---------------------------------------------------------------------------
def tap_kinds(vswitch):
    return [type(tap) for tap in vswitch.taps]


def test_a_traced_only_vswitch_arms_the_bus_tap_and_no_ring(two_hosts):
    sim, topo, a, b, sw = two_hosts
    with sanitizing(False):
        vsw = AcdcVswitch(a, obs=ObsContext(sim))
    assert vsw.flight is None
    assert tap_kinds(vsw) == [VswitchObs]


def test_a_sanitize_only_vswitch_arms_the_ring_and_no_bus_tap(two_hosts):
    sim, topo, a, b, sw = two_hosts
    with sanitizing(True):
        vsw = AcdcVswitch(a)
    assert vsw.trace is None and isinstance(vsw.flight, FlightRecorder)
    assert VswitchObs not in tap_kinds(vsw)
    assert tap_kinds(vsw)[0] is FlightRecorder


def test_traced_and_sanitized_put_the_bus_tap_before_the_ring(two_hosts):
    sim, topo, a, b, sw = two_hosts
    with sanitizing(True):
        vsw = AcdcVswitch(a, obs=ObsContext(sim))
    assert tap_kinds(vsw)[:2] == [VswitchObs, FlightRecorder]
    assert vsw.taps[1] is vsw.flight


def test_no_datapath_tap_hook_compares_to_none():
    """A tap is there or it is not: its hooks never test for an absent
    sink (or anything else) with ``is None``."""
    hooks = set(acdc.HOOKS) | set(PORT_HOOKS)
    offenders = []
    for cls in (FlightRecorder, VswitchObs, PortObs):
        for method in ast.parse(inspect.getsource(cls)).body[0].body:
            if not (isinstance(method, ast.FunctionDef)
                    and method.name in hooks):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Compare) and any(
                        isinstance(c, ast.Constant) and c.value is None
                        for c in [node.left, *node.comparators]):
                    offenders.append(f"{cls.__name__}.{method.name}")
    assert offenders == []
