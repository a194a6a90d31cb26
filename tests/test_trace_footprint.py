"""The trace bus's columns, and the INT fast paths that ride with it.

A traced run's memory is its trace: one ``rwnd.rewrite`` per ACK and one
``int.report`` per echo.  The bus keeps, per record, the index of its
interned shape, its timestamp and its flow key, and per shape one typed
or boxed value column per field; every record enters through a
pre-bound channel (DESIGN.md §11).  These tests pin what that layout
must keep:

(a) what a record retains, measured with tracemalloc;
(b) everything the bus answers, against the object-per-record bus it
    replaced (kept below as a tests-only oracle), including the exact
    type of every value across typed and boxed columns;
(c) a wrong emission, or a wrong channel call, raises on every call;
(d) a bus pickled mid-run and continued is the uninterrupted bus;
(e) stamping a hop never re-enters the departure settle, which a switch
    packet enters at most once;
(f) the INT validators' fast paths, and the sink's inline stack check,
    agree with the per-value loops;
(g) the frames per switch packet the traced and INT datapaths cost;
(h) values that wait in a channel's pending batch read back as if each
    had gone straight into its column, and the batch stays bounded;
(i) every echo a sink builds passes the reference validator, which is
    what lets the view skip the scan for it, and every other echo is
    scanned;
(j) a run pickled with echoes and stamps in flight continues as the
    uninterrupted one.
"""

from __future__ import annotations

import enum
import gc
import math
import pickle
import sys
import tracemalloc
from array import array
from collections import Counter as _TallyCounter
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IntMangler, sanitizing
from repro.control.service import Service, ServiceConfig
from repro.experiments.common import ACDC
from repro.experiments.runners import run_dumbbell
from repro.net.buffer import Departures
from repro.net.packet import Packet
from repro.obs import (ERROR, INFO, WARNING, IntTelemetry, ObsContext,
                       TraceBus, TraceConfig)
from repro.obs import int as int_mod
from repro.obs import trace as trace_mod
from repro.obs.int import (IntEcho, IntSink, TelemetryView, valid_echo,
                           valid_hop, valid_stack)
from repro.obs.trace import (EVENT_SCHEMAS, RESERVED_FIELDS, SEVERITY_NAMES,
                             format_flow)
from repro.runtime.spec import canonical_json

FLOWS = (None, ("10.0.0.1", 10000, "10.0.0.2", 5000),
         ("10.0.0.9", 1, "10.0.0.8", 2), "already-a-string")


class FakeSim:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def unsanitized():
    """These runs count frames and bytes of the traced datapath only."""
    with sanitizing(False):
        yield


def dumbbell(**taps):
    """The frame-budget dumbbell (the ledger's at a tenth of its
    duration)."""
    return run_dumbbell(ACDC, pairs=5, duration=0.02, mtu=1500,
                        rate_bps=1e9, rtt_probe=True, seed=1, **taps)


def traced_dumbbell():
    """The dumbbell with obs and INT on (the taps workload); returns the
    run and its INT context."""
    int_tel = IntTelemetry()
    return dumbbell(obs=ObsContext(), int_tel=int_tel), int_tel


def switch_packets(result) -> int:
    return sum(port.stats.tx_packets
               for switch in result.topology.switches.values()
               for port in switch.ports.values())


# ---------------------------------------------------------------------------
# The oracle: the bus that stored one TraceEvent plus one dict per record
# ---------------------------------------------------------------------------
class ReferenceEvent:
    __slots__ = ("t", "type", "severity", "component", "flow", "fields")

    def __init__(self, t, type_, severity, component, flow, fields):
        self.t = t
        self.type = type_
        self.severity = severity
        self.component = component
        self.flow = flow
        self.fields = fields

    def to_record(self) -> dict:
        record = {
            "t": self.t,
            "type": self.type,
            "sev": SEVERITY_NAMES.get(self.severity, str(self.severity)),
            "component": self.component,
            "flow": format_flow(self.flow),
        }
        record.update(self.fields)
        return record


class ReferenceBus:
    def __init__(self, sim, config: TraceConfig):
        self.sim = sim
        self.config = config
        self.events: List[ReferenceEvent] = []
        self.emitted = 0
        self.recorded = 0
        self.sampled_out = 0
        self.dropped = 0
        self._tallies: _TallyCounter = _TallyCounter()
        self._sample_counters: Dict[str, int] = {}

    def emit(self, type_: str, *, flow=None, component: Optional[str] = None,
             severity: int = INFO, **fields) -> bool:
        self.emitted += 1
        config = self.config
        required = EVENT_SCHEMAS.get(type_)
        if required is None:
            raise KeyError(
                f"unknown trace event type {type_!r}; add it to "
                f"repro.obs.trace.EVENT_SCHEMAS")
        for name in required:
            if name not in fields:
                raise ValueError(
                    f"trace event {type_!r} requires field {name!r}")
        for name in RESERVED_FIELDS:
            if name in fields:
                raise ValueError(
                    f"trace event field {name!r} shadows a reserved "
                    f"record key")
        n = config.sample.get(type_, 0)
        if n > 1:
            count = self._sample_counters.get(type_, 0)
            self._sample_counters[type_] = count + 1
            if count % n != 0:
                self.sampled_out += 1
                return False
        if len(self.events) >= config.max_events:
            self.dropped += 1
            return False
        self.events.append(ReferenceEvent(self.sim.now, type_, severity,
                                          component, flow, fields))
        self.recorded += 1
        self._tallies[type_] += 1
        return True

    def records(self) -> List[dict]:
        return [event.to_record() for event in self.events]

    def by_type(self) -> Dict[str, int]:
        return {k: self._tallies[k] for k in sorted(self._tallies)}

    def for_flow(self, flow) -> List[ReferenceEvent]:
        wanted = format_flow(flow)
        return [e for e in self.events if format_flow(e.flow) == wanted]

    def summary(self) -> dict:
        return {
            "emitted": self.emitted,
            "recorded": self.recorded,
            "sampled_out": self.sampled_out,
            "dropped": self.dropped,
            "by_type": self.by_type(),
        }


def as_tuples(events) -> list:
    return [(e.t, e.type, e.severity, e.component, e.flow, e.fields)
            for e in events]


def outcome(bus, kwargs):
    """What one emission returns or raises (type and message)."""
    try:
        return bus.emit(**kwargs)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_answers(bus, ref):
    assert bus.records() == ref.records()
    assert [list(r) for r in bus.records()] == [list(r) for r in
                                                ref.records()]
    assert as_tuples(bus.events) == as_tuples(ref.events)
    for flow in FLOWS:
        assert as_tuples(bus.for_flow(flow)) == as_tuples(ref.for_flow(flow))
    assert bus.by_type() == ref.by_type()
    assert bus.summary() == ref.summary()
    assert len(bus) == len(ref.events)


# Field names: required ones of the schema types, free extras, and the
# reserved keys (always rejected).
FIELD_NAMES = ("state", "wnd_bytes", "rewritten", "direction", "status",
               "serial", "extra", "t", "type", "sev")
VALUES = st.one_of(st.integers(-5, 5), st.booleans(), st.none(),
                   st.sampled_from(["a", "ok", ""]),
                   st.floats(allow_nan=False))
EMITS = st.fixed_dictionaries(
    {"type_": st.sampled_from(("flow.state", "rwnd.rewrite", "ecn.mark",
                               "int.report", "not.a.type")),
     "flow": st.sampled_from(FLOWS),
     "component": st.sampled_from((None, "vswitch", "int.view")),
     "severity": st.sampled_from((INFO, WARNING, ERROR, 25))},
    optional={"fields": st.dictionaries(st.sampled_from(FIELD_NAMES),
                                        VALUES, max_size=4)})
CONFIGS = st.builds(
    TraceConfig,
    sample=st.dictionaries(st.sampled_from(("ecn.mark", "flow.state",
                                            "int.report")),
                           st.integers(0, 4), max_size=2),
    max_events=st.integers(0, 12))


def flat(emit: dict) -> dict:
    kwargs = {k: v for k, v in emit.items() if k != "fields"}
    kwargs.update(emit.get("fields", {}))
    return kwargs


def replay(buses, emits, start=0):
    for step, emit in enumerate(emits, start):
        for bus in buses:
            bus.sim.now = step * 1e-3
        results = [outcome(bus, flat(emit)) for bus in buses]
        assert results[1:] == results[:-1], emit


# ---------------------------------------------------------------------------
# (a) What a record retains
# ---------------------------------------------------------------------------
def test_a_traced_record_retains_at_most_60_bytes(unsanitized):
    """tracemalloc bytes a traced run's records hold: the bytes freed
    when the columns are released, over the number of records, with the
    pending batches moved in first.  Here the columns retain 44 B, one
    tuple per record retained 165 B and an object plus a kwargs dict
    352 B."""
    tracemalloc.start()
    try:
        result, _ = traced_dumbbell()
        bus = result.obs.bus
        for channel in bus._shapes.values():
            channel.flush()
        gc.collect()
        records = len(bus)
        before = tracemalloc.get_traced_memory()[0]
        for channel in bus._shapes.values():
            channel._columns = channel._kinds = None
        bus._order, bus._times, bus._flows = array("I"), array("d"), []
        gc.collect()
        released = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 5000
    assert released / records <= 60


# ---------------------------------------------------------------------------
# (b) Same answers as the object-per-record bus
# ---------------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(config=CONFIGS, emits=st.lists(EMITS, max_size=40))
def test_the_bus_answers_as_the_object_per_record_bus(config, emits):
    bus = TraceBus(FakeSim(), config)
    ref = ReferenceBus(FakeSim(), config)
    replay((bus, ref), emits)
    assert_same_answers(bus, ref)


def test_materialised_events_compare_by_value():
    bus = TraceBus(FakeSim())
    bus.emit("flow.state", flow=FLOWS[1], state="insert")
    first, again = bus.events[0], bus.events[0]
    assert first is not again and first == again
    bus.sim.now = 1.0
    bus.emit("flow.state", flow=FLOWS[1], state="insert")
    assert bus.events[1] != first


def test_records_of_one_shape_share_it():
    bus = TraceBus(FakeSim(), TraceConfig(sample={}))
    for wnd in range(50):
        bus.emit("rwnd.rewrite", flow=FLOWS[1], component="vswitch",
                 wnd_bytes=wnd, rewritten=True, visible_bytes=wnd)
    bus.emit("rwnd.rewrite", flow=FLOWS[1], component="vswitch",
             rewritten=True, wnd_bytes=1, visible_bytes=1)  # other order
    assert len(bus._shapes) == 2
    assert list(bus._order) == [0] * 50 + [1]
    first, other = bus._shapes.values()
    assert [column.typecode for column in first.columns] == ["i", "b", "i"]
    assert [len(column) for column in first.columns] == [50, 50, 50]
    assert all(flow is FLOWS[1] for flow in bus._flows)
    assert list(bus.records()[-1]) == ["t", "type", "sev", "component",
                                       "flow", "rewritten", "wnd_bytes",
                                       "visible_bytes"]


# ---------------------------------------------------------------------------
# (c) A wrong emission raises every time
# ---------------------------------------------------------------------------
WRONG = {
    "unknown type": (KeyError, dict(type_="not.a.type", state="x")),
    "missing field": (ValueError, dict(type_="ecn.mark")),
    "reserved field": (ValueError, dict(type_="ecn.mark", direction="x",
                                        t=1.0)),
}


@pytest.mark.parametrize("wrong", WRONG)
@pytest.mark.parametrize("fate", ["recorded", "sampled_out", "dropped"])
def test_a_wrong_emit_raises_on_its_first_and_tenth_call(wrong, fate):
    error, kwargs = WRONG[wrong]
    config = TraceConfig(sample={"ecn.mark": 4, "not.a.type": 4},
                         max_events=0 if fate == "dropped" else 10)
    bus = TraceBus(FakeSim(), config)
    shape = (kwargs["type_"], kwargs.get("severity", INFO), None,
             tuple(k for k in kwargs if k not in ("type_", "severity")))
    messages = []
    for call in range(10):
        if fate == "sampled_out" and call:
            # The valid twin advances the sampler past keep-1-in-4's
            # first slot, so a correct emit here would be sampled out.
            bus.emit("ecn.mark", direction="egress")
        with pytest.raises(error) as exc:
            bus.emit(**kwargs)
        messages.append(str(exc.value))
    assert messages == messages[:1] * 10
    assert shape not in bus._shapes   # never interned
    assert bus.emitted == (bus.recorded + bus.sampled_out + bus.dropped
                           + 10)


# ---------------------------------------------------------------------------
# (d) Pickled mid-run, then continued
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(config=CONFIGS, head=st.lists(EMITS, max_size=20),
       tail=st.lists(EMITS, max_size=20))
def test_a_bus_pickled_mid_run_continues_as_the_uninterrupted_one(
        config, head, tail):
    whole = TraceBus(FakeSim(), config)
    cut = TraceBus(FakeSim(), config)
    replay((whole, cut), head)
    restored = pickle.loads(pickle.dumps(cut))
    replay((whole, restored), tail, start=len(head))
    assert restored.records() == whole.records()
    assert as_tuples(restored.events) == as_tuples(whole.events)
    assert restored.summary() == whole.summary()
    assert len(restored._shapes) == len(whole._shapes)


# ---------------------------------------------------------------------------
# (b') Typed and boxed columns give back every value with its exact type
# ---------------------------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


#: Values one field may mix: what typed columns hold, their edges, and
#: the types that must never collapse into them.
MIXED = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([2 ** 31 - 1, 2 ** 31, -2 ** 31, -2 ** 31 - 1,
                     2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1]),
    st.booleans(), st.floats(),
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf]),
    st.sampled_from([Level.LOW, Level.HIGH, Tag("ok"), Tag("")]),
    st.none(), st.sampled_from(["a", "ok", ""]))
SHAPES = (("rwnd.rewrite", ("wnd_bytes", "rewritten", "visible_bytes")),
          ("int.report", ("status", "q_max_bytes", "util")),
          ("flow.state", ("state", "serial", "extra")))
MIXED_EMITS = st.tuples(st.integers(0, len(SHAPES) - 1),
                        st.sampled_from(FLOWS),
                        st.sampled_from((INFO, WARNING, ERROR)),
                        st.lists(MIXED, min_size=3, max_size=3))


def typed(records) -> list:
    """Records as (key, exact type, repr) triples: NaN equals itself and
    -0.0 differs from 0.0."""
    return [[(key, type(value), repr(value)) for key, value in rec.items()]
            for rec in records]


def typed_events(events) -> list:
    return [(e.t, e.type, e.severity, e.component, e.flow,
             typed([e.fields])) for e in events]


def by_kwargs(bus, step, emit):
    shape, flow, severity, values = emit
    type_, names = SHAPES[shape]
    bus.sim.now = step * 1e-3
    return bus.emit(type_, flow=flow, component="c", severity=severity,
                    **dict(zip(names, values)))


def by_channel(bus, step, emit):
    shape, flow, severity, values = emit
    type_, names = SHAPES[shape]
    bus.sim.now = step * 1e-3
    return bus.channel(type_, names, component="c",
                       severity=severity).emit(flow, *values)


def layout(bus) -> list:
    return [(key, channel.kinds,
             [getattr(column, "typecode", list) for column in
              channel.columns or ()])
            for key, channel in bus._shapes.items()]


@settings(max_examples=300, deadline=None)
@given(emits=st.lists(MIXED_EMITS, max_size=40))
def test_columns_give_back_every_value_with_its_type(emits):
    config = TraceConfig(sample={})
    bus, ref = TraceBus(FakeSim(), config), ReferenceBus(FakeSim(), config)
    for step, emit in enumerate(emits):
        assert by_kwargs(bus, step, emit) == by_kwargs(ref, step, emit)
    assert typed(bus.records()) == typed(ref.records())
    assert typed_events(bus.events) == typed_events(ref.events)
    for flow in FLOWS:
        assert (typed_events(bus.for_flow(flow))
                == typed_events(ref.for_flow(flow)))
    assert bus.summary() == ref.summary()


#: Values of one field, in emission order -> the column that holds them.
COLUMNS = [([1, 2], "i"), ([2 ** 31 - 1, -2 ** 31], "i"), ([1.5, -0.0], "d"),
           ([math.nan, math.inf], "d"), ([True, False], "b"),
           ([1, True], list), ([True, 1], list), ([1, 1.0], list),
           ([1.0, 1], list), ([1, 2 ** 31], list), ([2 ** 63], list),
           ([Level.LOW, 1], list), ([1, Level.LOW], list), (["a"], list),
           ([Tag("a")], list), ([None, "a"], list), (["a", None], list)]


@pytest.mark.parametrize("values, column", COLUMNS)
def test_a_column_is_typed_until_a_value_breaks_its_type(values, column):
    bus = TraceBus(FakeSim())
    channel = bus.channel("flow.state", ("state",))
    for value in values:
        assert channel.emit(None, value)
    (held,) = channel.columns
    assert getattr(held, "typecode", list) == column
    assert typed([e.fields for e in bus.events]) == typed(
        [{"state": value} for value in values])


@settings(max_examples=200, deadline=None)
@given(config=CONFIGS, emits=st.lists(MIXED_EMITS, max_size=40))
def test_a_channel_and_keyword_emits_fill_equal_buses(config, emits):
    channels, keywords = TraceBus(FakeSim(), config), TraceBus(FakeSim(),
                                                               config)
    for step, emit in enumerate(emits):
        assert (by_channel(channels, step, emit)
                == by_kwargs(keywords, step, emit))
    assert typed(channels.records()) == typed(keywords.records())
    assert channels.summary() == keywords.summary()
    assert list(channels._order) == list(keywords._order)
    assert layout(channels) == layout(keywords)


BAD_CHANNELS = {
    "unknown type": (KeyError, ("not.a.type", ("state",))),
    "missing field": (ValueError, ("ecn.mark", ("reason",))),
    "reserved field": (ValueError, ("ecn.mark", ("direction", "t"))),
}


@pytest.mark.parametrize("bad", BAD_CHANNELS)
def test_a_channel_for_a_bad_shape_raises_when_created(bad):
    error, (type_, names) = BAD_CHANNELS[bad]
    bus = TraceBus(FakeSim())
    messages = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            bus.channel(type_, names, component="c")
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert bus._shapes == {} and bus.emitted == 0


@pytest.mark.parametrize("values", [(), ("egress", "extra")])
@pytest.mark.parametrize("fate", ["recorded", "sampled_out", "dropped"])
def test_a_wrong_arity_channel_call_raises_on_its_first_and_tenth_call(
        values, fate):
    bus = TraceBus(FakeSim(), TraceConfig(
        sample={"ecn.mark": 4}, max_events=0 if fate == "dropped" else 10))
    channel = bus.channel("ecn.mark", ("direction",))
    messages = []
    for call in range(10):
        if fate == "sampled_out" and call:
            # Past keep-1-in-4's first slot: a right call would be
            # sampled out here.
            channel.emit(None, "egress")
        with pytest.raises(ValueError) as exc:
            channel.emit(None, *values)
        messages.append(str(exc.value))
    assert messages == messages[:1] * 10
    assert bus.emitted == (bus.recorded + bus.sampled_out + bus.dropped
                           + 10)
    # Only the right calls advanced the sampler: the type's one cell,
    # which the channel bound when it was created.
    assert channel.sampler is bus._samplers["ecn.mark"]
    assert channel.sampler[0] == (9 if fate == "sampled_out" else 0)


@settings(max_examples=100, deadline=None)
@given(head=st.lists(MIXED_EMITS, max_size=20),
       tail=st.lists(MIXED_EMITS, max_size=20))
def test_a_channel_bus_pickled_mid_run_continues_as_the_uninterrupted_one(
        head, tail):
    whole, cut = TraceBus(FakeSim()), TraceBus(FakeSim())
    for step, emit in enumerate(head):
        by_channel(whole, step, emit)
        by_channel(cut, step, emit)
    whole.channel(*SHAPES[0], component="c")
    held = cut.channel(*SHAPES[0], component="c")
    restored, held = pickle.loads(pickle.dumps((cut, held)))
    assert held.bus is restored
    assert restored.channel(*SHAPES[0], component="c") is held
    for step, emit in enumerate(tail, len(head)):
        by_channel(whole, step, emit)
        by_channel(restored, step, emit)
    assert typed(restored.records()) == typed(whole.records())
    assert restored.summary() == whole.summary()
    assert layout(restored) == layout(whole)


# ---------------------------------------------------------------------------
# (e) Stamping never re-enters the settle
# ---------------------------------------------------------------------------
def test_the_taps_recipe_never_re_enters_the_departure_settle(monkeypatch,
                                                              unsanitized):
    settle = Departures.settle
    calls = {"settle": 0, "re-entered": 0}

    def counted(self):
        calls["settle"] += 1
        calls["re-entered"] += self._settling
        return settle(self)

    monkeypatch.setattr(Departures, "settle", counted)
    result, int_tel = traced_dumbbell()
    stamped = sum(stamper.stamped for stamper in int_tel.stampers)
    assert stamped >= 5000 and len(result.obs.bus) > 5000
    assert calls["re-entered"] == 0
    # A hand-off enters the settle only for a due head (0.65 here; 1.32
    # when every stamped hand-off entered it).
    assert calls["settle"] <= switch_packets(result)


# ---------------------------------------------------------------------------
# (f) The INT validators' fast paths
# ---------------------------------------------------------------------------
def reference_valid_hop(record) -> bool:
    if not isinstance(record, tuple) or len(record) != 6:
        return False
    hop, q, q_ewma, tx, util, res = record
    if not isinstance(hop, str) or not hop:
        return False
    for value in (q, q_ewma, tx, util, res):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if value < 0:
            return False
    return True


def reference_valid_echo(echo) -> bool:
    if not isinstance(echo, IntEcho):
        return False
    if not isinstance(echo.serial, int) or echo.serial < 1:
        return False
    if not isinstance(echo.path, tuple) or not echo.path:
        return False
    if not isinstance(echo.hops, tuple) or len(echo.hops) != len(echo.path):
        return False
    if not isinstance(echo.stacks, int) or echo.stacks < 1:
        return False
    for hop_id, agg in zip(echo.path, echo.hops):
        if not isinstance(hop_id, str) or not hop_id:
            return False
        if not isinstance(agg, tuple) or len(agg) != 7 or agg[0] != hop_id:
            return False
        for value in agg[1:]:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
            if value < 0:
                return False
    return True


class HopTuple(tuple):
    """A tuple subclass: valid to the loops, never to the fast path."""


class HopId(str):
    pass


NAN = math.nan
HOP_IDS = st.sampled_from(["sw.p0", "sw.p1", "", HopId("sw.p0")])
INTS = st.one_of(st.integers(-3, 10 ** 6), st.booleans())
FLOATS = st.one_of(st.floats(min_value=-1.0, max_value=1e6),
                   st.sampled_from([NAN, -0.0, math.inf, -math.inf]))
NUMBERS = st.one_of(INTS, FLOATS, st.none(), st.just("1"))
CONTAINERS = st.sampled_from([tuple, tuple, tuple, HopTuple, list])
COUNTS = st.integers(0, 19).flatmap(
    lambda pick: st.sampled_from([0, -1, True, 1.0]) if pick == 0
    else st.integers(1, 9))


#: Per value slot: exact type and in range, exact type at an edge, any.
EXACT = {int: (st.integers(0, 10 ** 6), st.integers(-3, -1)),
         float: (st.floats(0.0, 1e6),
                 st.sampled_from([NAN, -0.0, math.inf, -math.inf, -1.5]))}


@st.composite
def hop_records(draw, types):
    """A record of ``types`` (a hop id, then int or float values); most
    values are in range and of exactly the slot's type, so the fast path
    is tried often."""
    values = [draw(HOP_IDS)]
    for kind in types[1:]:
        pick = draw(st.integers(0, 19))
        in_range, edge = EXACT[kind]
        values.append(draw(NUMBERS if pick == 0 else
                           edge if pick == 1 else in_range))
    if draw(st.integers(0, 9)) == 0:
        values = values[:draw(st.integers(0, len(values)))]
    return draw(CONTAINERS)(values)


HOPS = hop_records((str, int, float, int, float, float))
AGGS = hop_records((str, int, int, float, float, float, float))


@st.composite
def echoes(draw):
    aggs = draw(st.lists(AGGS, min_size=1, max_size=3)
                if draw(st.integers(0, 19)) else st.just([]))
    path = tuple(agg[0] if agg and draw(st.integers(0, 9)) else
                 draw(HOP_IDS) for agg in aggs)
    if draw(st.integers(0, 9)) == 0:
        path = path[1:]
    hops = tuple(aggs) if draw(st.integers(0, 9)) else list(aggs)
    return IntEcho(draw(COUNTS), path, hops, draw(COUNTS))


@settings(max_examples=500, deadline=None)
@given(record=HOPS)
def test_valid_hop_agrees_with_the_per_value_loop(record):
    assert valid_hop(record) is reference_valid_hop(record)


@settings(max_examples=200, deadline=None)
@given(stack=st.one_of(st.lists(HOPS, max_size=9),
                       st.lists(HOPS, max_size=2).map(tuple)))
def test_valid_stack_agrees_with_the_per_value_loop(stack):
    expected = (isinstance(stack, list) and 0 < len(stack) <= 8
                and all(map(reference_valid_hop, stack)))
    assert valid_stack(stack) is expected
    assert IntSink().absorb(stack) is expected


@settings(max_examples=500, deadline=None)
@given(echo=st.one_of(echoes(), st.none(), st.just(("a",))))
def test_valid_echo_agrees_with_the_per_value_loop(echo):
    assert valid_echo(echo) is reference_valid_echo(echo)


class Alike:
    """Equal to any hop id, but not a str: the loops reject it."""

    def __eq__(self, other):
        return True


HOP = ("sw.p0", 3000, 1500.0, 9000, 0.5, 1e-5)
AGG = ("sw.p0", 3000, 4500, 1500.0, 0.5, 2e-5, 1e-5)


def echo_of(*aggs, path=None):
    return IntEcho(1, path or tuple(agg[0] for agg in aggs), aggs, 2)


#: Exact-typed records one edge away from what the datapath stamps.
EDGE_HOPS = [HOP, HopTuple(HOP), list(HOP), ("",) + HOP[1:],
             (HopId("sw.p0"),) + HOP[1:], HOP[:1] + (True,) + HOP[2:],
             HOP[:3] + (-1,) + HOP[4:], HOP[:2] + (-math.inf,) + HOP[3:],
             ("sw.p0", 0, NAN, 0, -0.0, NAN), ("sw.p0", 0, NAN, -1, 0.5, 0.0)]
EDGE_ECHOES = [echo_of(AGG), echo_of(AGG, path=(Alike(),)),
               echo_of(("",) + AGG[1:]), echo_of(HopTuple(AGG)),
               echo_of(AGG[:2] + (-1,) + AGG[3:]),
               echo_of(AGG[:1] + (False,) + AGG[2:]),
               echo_of(AGG[:5] + (NAN,) + AGG[6:]),
               echo_of(AGG, ("sw.p1",) + AGG[1:]),
               echo_of(AGG, ("sw.p1",) + AGG[1:3] + (-0.5,) + AGG[4:])]


def test_the_fast_paths_take_what_the_datapath_stamps():
    assert valid_hop(HOP) and valid_echo(echo_of(AGG))
    assert IntSink().absorb([HOP, HOP[:1] + (0,) + HOP[2:]])


@pytest.mark.parametrize("record", EDGE_HOPS)
def test_valid_hop_agrees_on_the_edges(record):
    assert valid_hop(record) is reference_valid_hop(record)
    assert IntSink().absorb([HOP, record]) is reference_valid_hop(record)


@pytest.mark.parametrize("echo", EDGE_ECHOES)
def test_valid_echo_agrees_on_the_edges(echo):
    assert valid_echo(echo) is reference_valid_echo(echo)


# ---------------------------------------------------------------------------
# (g) Frames per switch packet with the taps on
# ---------------------------------------------------------------------------
def frames_per_switch_packet(**taps):
    """Python ``call`` events of the frame-budget dumbbell (set-up
    included) per packet the switches transmitted."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    sys.setprofile(profiler)
    try:
        result = dumbbell(**taps)
    finally:
        sys.setprofile(None)
    return calls / switch_packets(result)


#: configuration -> (frames per switch packet before the last cut of
#: each, ceiling); measured here: 44.93 and 41.06.  obs+int read 45.95
#: while each switch enqueue and drop also offered a ``buffer.occupancy``
#: record, and 46.44 and 41.56 before the sink built its echoes without
#: a frame and the view trusted them by type (taps off, 36.04, is pinned
#: by test_frame_budget.py).
FRAME_GATES = {
    "obs+int": (45.95, 44.94, lambda: {"obs": ObsContext(),
                                       "int_tel": IntTelemetry()}),
    "int": (43.68, 41.4, lambda: {"int_tel": IntTelemetry()}),
}


@pytest.mark.parametrize("config", FRAME_GATES)
def test_the_taps_stay_within_their_frame_gates(config, unsanitized):
    parent, ceiling, taps = FRAME_GATES[config]
    assert ceiling < parent
    assert frames_per_switch_packet(**taps()) <= ceiling


# ---------------------------------------------------------------------------
# (h) Pending batches
# ---------------------------------------------------------------------------
@pytest.fixture
def small_batch(monkeypatch):
    """Flush every 3 kept records, so breaks land inside and across
    batches."""
    monkeypatch.setattr(trace_mod, "BATCH", 3)


#: Where in a batch a column's type breaks, and the value that breaks it.
BREAKS = [(at, value) for at in (1, 2, 3, 4, 7)
          for value in (1.5, True, 2 ** 31, -2 ** 31 - 1, 2 ** 63, None,
                        Level.LOW)]


@pytest.mark.parametrize("at, value", BREAKS)
def test_a_break_inside_a_batch_reads_back_as_the_oracle(small_batch, at,
                                                         value):
    """An int column whose type breaks (or whose int overflows 32 bits)
    at the ``at``-th record, inside a batch or at its edge."""
    config = TraceConfig(sample={})
    bus, ref = TraceBus(FakeSim(), config), ReferenceBus(FakeSim(), config)
    values = [7] * at + [value] + [8, 2 ** 31 - 1, 9]
    channel = bus.channel("flow.state", ("state", "serial"), component="c")
    for step, v in enumerate(values):
        bus.sim.now = ref.sim.now = step * 1e-3
        assert channel.emit(FLOWS[1], v, step)
        ref.emit("flow.state", flow=FLOWS[1], component="c", state=v,
                 serial=step)
        assert len(channel.pending) < 3
    assert typed(bus.records()) == typed(ref.records())
    assert typed_events(bus.events) == typed_events(ref.events)
    assert bus.summary() == ref.summary()
    assert [getattr(c, "typecode", list) for c in channel.columns] == [
        "i" if type(value) is int and -2 ** 31 <= value < 2 ** 31 else list,
        "i"]


@settings(max_examples=150, deadline=None)
@given(config=CONFIGS, emits=st.lists(MIXED_EMITS, max_size=60))
def test_batched_columns_answer_as_the_object_per_record_bus(config, emits):
    """The mixed-type oracle test, with a batch that flushes every few
    records and a pickle at every reader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_mod, "BATCH", 2)
        bus, ref = TraceBus(FakeSim(), config), ReferenceBus(FakeSim(),
                                                             config)
        for step, emit in enumerate(emits):
            assert by_kwargs(bus, step, emit) == by_kwargs(ref, step, emit)
            if step % 7 == 0:
                bus = pickle.loads(pickle.dumps(bus))
        assert typed(bus.records()) == typed(ref.records())
        assert typed_events(bus.events) == typed_events(ref.events)
        assert bus.summary() == ref.summary()
        assert all(len(ch.pending) < 2 for ch in bus._shapes.values())


def test_a_traced_run_holds_at_most_one_batch_per_channel(unsanitized):
    result, _ = traced_dumbbell()
    bus = result.obs.bus
    assert len(bus) > 5000
    assert all(len(ch.pending) < trace_mod.BATCH
               for ch in bus._shapes.values())
    assert sum(map(len, bus._shapes.values())) == len(bus)


# ---------------------------------------------------------------------------
# (i) A sink's echo is valid by construction; any other is scanned
# ---------------------------------------------------------------------------
def reference_echo(serial, window) -> tuple:
    """The echo of a window of stacks: per hop, the last and largest
    queue depth, the last EWMAs and the sum and largest residence."""
    aggs = [[r[0], r[1], r[1], r[2], r[4], r[5], r[5]] for r in window[0]]
    for stack in window[1:]:
        for agg, rec in zip(aggs, stack):
            agg[1] = rec[1]
            if rec[1] > agg[2]:
                agg[2] = rec[1]
            agg[3] = rec[2]
            agg[4] = rec[4]
            agg[5] += rec[5]
            if rec[5] > agg[6]:
                agg[6] = rec[5]
    return (serial, tuple(r[0] for r in window[0]),
            tuple(map(tuple, aggs)), len(window))


def exact(value):
    """A nested value as (type, repr) leaves: NaN equals itself, -0.0
    differs from 0.0 and an int differs from an equal float."""
    if isinstance(value, tuple):
        return type(value), tuple(map(exact, value))
    return type(value), repr(value)


SINK_IDS = st.sampled_from(["sw.p0", "sw.p1", HopId("sw.p0")])
SINK_HOPS = st.one_of(
    st.tuples(SINK_IDS, st.integers(0, 10 ** 6), st.floats(0.0, 1e6),
              st.integers(0, 10 ** 6), st.floats(0.0, 1.0),
              st.floats(0.0, 1e-3)),
    HOPS)
SINK_OPS = st.lists(st.one_of(
    st.lists(SINK_HOPS, min_size=1, max_size=2), st.just("echo"),
    st.lists(HOPS, max_size=9)), max_size=30)


@settings(max_examples=400, deadline=None)
@given(ops=SINK_OPS)
def test_every_echo_a_sink_makes_passes_the_reference_validator(ops):
    sink, window, serial = IntSink(), [], 0
    for op in ops:
        if op != "echo":
            valid = (0 < len(op) <= 8 and all(map(reference_valid_hop, op)))
            assert sink.absorb(list(op)) is valid
            if valid:
                path = tuple(r[0] for r in op)
                if not window or path != tuple(r[0] for r in window[0]):
                    window = []
                window.append(op)
            continue
        echo = sink.make_echo()
        if not window:
            assert echo is None
            continue
        serial += 1
        assert reference_valid_echo(echo)
        assert type(echo) is not IntEcho and isinstance(echo, IntEcho)
        assert exact(tuple(echo)) == exact(reference_echo(serial, window))
        window = []


@pytest.fixture
def scans(monkeypatch):
    """The echoes the view handed to ``valid_echo``."""
    seen = []

    def counted(echo):
        seen.append(echo)
        return valid_echo(echo)

    monkeypatch.setattr(int_mod, "valid_echo", counted)
    return seen


def sink_echo():
    sink = IntSink()
    sink.absorb([HOP])
    sink.absorb([HOP[:1] + (4500,) + HOP[2:]])
    return sink.make_echo()


class CountingChain:
    def record(self, fault):
        fault.events += 1


def mangled(echo):
    """What the corrupting injector puts on a packet carrying ``echo``."""
    pkt = Packet(src="a", dst="b", sport=1, dport=2, ack=True)
    pkt.int_echo = echo
    IntMangler("corrupt").process(pkt, CountingChain(), 0, "ingress")
    return pkt.int_echo


def test_a_sink_echo_is_trusted_and_every_other_echo_is_scanned(scans):
    made = sink_echo()
    assert TelemetryView().on_echo(made) == ("ok", False)
    assert scans == []
    others = {"by hand, valid": (IntEcho(*made), "ok"),
              "by hand, invalid": (echo_of(AGG[:2] + (-1,) + AGG[3:]),
                                   "invalid"),
              "by hand, not a tuple hop": (IntEcho(1, ("sw.p0",),
                                                   (list(AGG),), 1),
                                           "invalid"),
              "corrupted": (mangled(made), "invalid"),
              "a sink echo's fields, base type": (
                  tuple.__new__(IntEcho, tuple(made)), "ok")}
    for name, (echo, status) in others.items():
        assert type(echo) is IntEcho, name
        assert TelemetryView().on_echo(echo)[0] == status, name
    assert scans == [echo for echo, _ in others.values()]


def test_an_echo_is_immutable_and_shared_by_a_copy():
    made = sink_echo()
    with pytest.raises(AttributeError):
        made.serial = 9
    pkt = Packet(src="a", dst="b", sport=1, dport=2, ack=True)
    pkt.int_echo = made
    assert pkt.copy().int_echo is made


# ---------------------------------------------------------------------------
# (j) Pickled with echoes and stamps in flight
# ---------------------------------------------------------------------------
INT_SERVICE = dict(n_hosts=4, epoch_s=0.01, arrival_rate_hz=4000.0,
                   msg_sizes=[16_384, 65_536], msg_weights=[3, 1], peers=2,
                   seed=5, int_telemetry=True)


def in_flight(svc) -> List[Packet]:
    return [arg for *_, args in svc.sim._heap for arg in args or ()
            if isinstance(arg, Packet)]


def int_state(svc) -> tuple:
    tel = svc.int_tel
    return (canonical_json(svc.obs.bus.records()), svc.obs.snapshot(),
            tel.snapshot(), canonical_json(
                {"|".join(map(str, key)): view.summary()
                 for key, view in tel.views().items()}))


def test_a_run_pickled_with_int_in_flight_continues_as_the_uninterrupted_one(
        unsanitized):
    svc = Service(ServiceConfig(**INT_SERVICE))
    svc.run_epoch()
    echoes = [p.int_echo for p in in_flight(svc) if p.int_echo is not None]
    assert echoes and all(type(e) is int_mod._SinkEcho for e in echoes)
    assert any(stamper._pending for stamper in svc.int_tel.stampers)
    clone = pickle.loads(pickle.dumps(svc))
    assert all(type(p.int_echo) is int_mod._SinkEcho
               for p in in_flight(clone) if p.int_echo is not None)
    for _ in range(2):
        assert canonical_json(svc.run_epoch()) == canonical_json(
            clone.run_epoch())
    assert canonical_json(svc.result()) == canonical_json(clone.result())
    assert int_state(clone) == int_state(svc)
