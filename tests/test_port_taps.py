"""A switch port's taps (DESIGN.md §10): one ordered tuple, five hooks.

Everything optional on a ``SwitchTxPort`` — the sanitizer's byte
accounting, telemetry, the INT stamper, a fluid coupling — is a tap
reached through ``link.PORT_HOOKS``, bound by the same function as the
vSwitch's taps.  These tests pin the contract: hooks fire offer →
enqueue|drop → depart with their documented arguments and in attach
order, the inflation factors multiply into the serialization time, a
tap pays only for the hooks it implements, and port methods reach their
taps through the hook tuples alone.
"""

import ast
import inspect

from repro.analysis import sanitize
from repro.core import AcdcVswitch
from repro.fluid.coupling import FluidPort
from repro.net.buffer import SharedBuffer
from repro.net.link import PORT_HOOKS, SwitchTxPort, TxPort
from repro.net.packet import ECN_ECT0, Packet
from repro.net.red import EcnMarker
from repro.taps import bind_tap

from test_vswitch_taps import frames_per_switch_packet
from test_vswitch_taps import unsanitized  # noqa: F401  (a fixture)

RATE = 8000.0   # 1000 B serialize in exactly 1.0 s
DELAY = 0.5


def data(size):
    return Packet(src="a", dst="b", sport=1, dport=2, payload_len=size - 40,
                  ecn=ECN_ECT0)


class Recorder:
    """Implements every port hook; checks each call's arguments as it
    happens and logs ``(name, hook, ...)`` into a shared list."""

    def __init__(self, name, log, port, factor):
        self.name, self.log, self.port, self.factor = name, log, port, factor

    def on_offer(self, nbytes):
        self.log.append((self.name, "on_offer", nbytes))

    def on_drop(self, queue_bytes, nbytes):
        self.log.append((self.name, "on_drop", queue_bytes, nbytes))

    def on_enqueue(self, packet, queue_bytes, nbytes, marked):
        assert packet.ce == marked  # the mark is committed first
        self.log.append((self.name, "on_enqueue", queue_bytes, nbytes, marked))

    def service_inflation(self):
        self.log.append((self.name, "service_inflation"))
        return self.factor

    def on_depart(self, packet, finish, nbytes, tx_bytes):
        assert finish <= self.port.sim.now
        assert tx_bytes == self.port._stats.tx_bytes  # before it counts
        self.log.append((self.name, "on_depart", finish, nbytes, tx_bytes))


def tapped_port(sim, peer):
    """ECN above 1500 B on a 6000 B pool, two recorders attached."""
    port = SwitchTxPort(sim, RATE, DELAY, SharedBuffer(6000),
                        EcnMarker(threshold_bytes=1500), queue_id=0,
                        peer=peer)
    log = []
    for name, factor in (("first", 2.0), ("second", 1.5)):
        port.add_tap(Recorder(name, log, port, factor))
    return port, log


def test_hooks_fire_in_attach_order_with_documented_arguments(sim, trap):
    port, log = tapped_port(sim, trap)
    # 0 B, 1000 B and 2000 B (marked) ahead are admitted; at 3000 B the
    # queue holds all that is free of the pool (the Dynamic Threshold at
    # alpha = 1), so the mark verdict is dropped with the packet.
    verdicts = [port.enqueue(data(1000)) for _ in range(4)]
    assert verdicts == [True, True, True, False]
    sim.run()
    seconds = 1.0 * 2.0 * 1.5  # both factors, in tap order
    finishes = [seconds * (i + 1) for i in range(3)]

    def both(*call):
        return [("first",) + call, ("second",) + call]

    expected = []
    for qb, marked in ((0, False), (1000, False), (2000, True)):
        expected += (both("on_offer", 1000)
                     + both("on_enqueue", qb, 1000, marked)
                     + both("service_inflation"))
    expected += both("on_offer", 1000) + both("on_drop", 3000, 1000)
    for i, finish in enumerate(finishes):
        expected += both("on_depart", finish, 1000, 1000 * i)
    assert log == expected
    assert [p.ce for p in trap.packets] == [False, False, True]
    assert port.stats.marked_packets == 1 and port.stats.dropped_packets == 1


def test_a_departure_tap_settles_before_the_hand_off(sim):
    seen = []

    class Peer:
        def receive(self, packet):
            seen.append((sim.now, len(log)))

    port, log = tapped_port(sim, Peer())
    port.enqueue(data(1000))
    sim.run()
    # Delivered at finish + delay, after both taps saw the departure.
    assert seen == [(3.0 + DELAY, len(log))]
    assert [call[1] for call in log[-2:]] == ["on_depart", "on_depart"]


def test_a_tap_binds_only_the_hooks_it_implements(sim):
    sanitize.enable(True)
    try:
        port = SwitchTxPort(sim, RATE, DELAY, SharedBuffer(3500),
                            EcnMarker(), queue_id=0)
    finally:
        sanitize.enable(None)
    (acct,) = port.taps
    assert isinstance(acct, sanitize.PortAccounting)
    assert port._service_inflation == ()
    assert all(len(getattr(port, "_" + hook)) == 1 for hook in PORT_HOOKS
               if hook != "service_inflation")
    fluid = FluidPort(port, port.shared, port.marker)
    port.add_tap(fluid)
    assert port.taps == (acct, fluid)
    assert port._service_inflation == (fluid.service_inflation,)
    assert len(port._on_depart) == 1
    assert len(PORT_HOOKS) == len(set(PORT_HOOKS)) <= 5


def test_one_function_binds_vswitch_and_port_taps():
    for cls in (AcdcVswitch, SwitchTxPort):
        calls = [node.func.id for node in ast.walk(ast.parse(
            inspect.getsource(cls.add_tap).strip()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        assert calls == [bind_tap.__name__]


def test_a_tap_without_port_hooks_costs_no_frame(monkeypatch, unsanitized):
    bare = frames_per_switch_packet(monkeypatch, run_only=True)
    init = SwitchTxPort.__init__

    def with_inert_tap(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.add_tap(object())

    monkeypatch.setattr(SwitchTxPort, "__init__", with_inert_tap)
    assert frames_per_switch_packet(monkeypatch, run_only=True) == bare


# ---------------------------------------------------------------------------
# (e) Port methods reach their taps through the hook tuples only
# ---------------------------------------------------------------------------
#: What a port method may compare to None: the pool (a host NIC has
#: none), the arrival time and the peer.  A hook never.
OPTIONAL_NON_HOOKS = {"shared", "when", "peer"}


def test_only_construction_names_the_taps():
    named = {"taps", "_accounting", "_obs", "_int", "_fluid"}
    offenders = []
    for cls in (TxPort, SwitchTxPort):
        for method in ast.parse(inspect.getsource(cls)).body[0].body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name) else None)
                if name in named and method.name not in ("__init__",
                                                         "add_tap"):
                    offenders.append(f"{method.name}: {name}")
                if isinstance(node, ast.Compare) and any(
                        isinstance(c, ast.Constant) and c.value is None
                        for c in node.comparators):
                    left = node.left
                    name = (left.attr if isinstance(left, ast.Attribute)
                            else getattr(left, "id", None))
                    if name not in OPTIONAL_NON_HOOKS:
                        offenders.append(f"{method.name}: {name} is None")
    assert offenders == []
