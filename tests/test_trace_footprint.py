"""The trace bus's compact log, and the INT fast paths that ride with it.

A traced run's memory is its trace: one ``rwnd.rewrite`` per ACK and one
``int.report`` per echo.  The bus keeps each record as one tuple
``(t, shape, flow, *values)`` with the shape interned per bus
(DESIGN.md §11).  These tests pin what that layout must keep:

(a) what a record retains, measured with tracemalloc;
(b) everything the bus answers, against the object-per-record bus it
    replaced (kept below as a tests-only oracle);
(c) a wrong emission raises on every call, not just the first;
(d) a bus pickled mid-run and continued is the uninterrupted bus;
(e) stamping a hop never re-enters the departure settle;
(f) the INT validators' fast paths agree with the per-value loops.
"""

from __future__ import annotations

import gc
import math
import pickle
import tracemalloc
from collections import Counter as _TallyCounter
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.experiments.common import ACDC
from repro.experiments.runners import run_dumbbell
from repro.net.buffer import Departures
from repro.obs import (DEBUG, ERROR, INFO, WARNING, IntTelemetry,
                       ObsContext, TraceBus, TraceConfig)
from repro.obs.int import IntEcho, valid_echo, valid_hop, valid_stack
from repro.obs.trace import (EVENT_SCHEMAS, RESERVED_FIELDS, SEVERITY_NAMES,
                             format_flow)

FLOWS = (None, ("10.0.0.1", 10000, "10.0.0.2", 5000),
         ("10.0.0.9", 1, "10.0.0.8", 2), "already-a-string")


class FakeSim:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def unsanitized():
    """These runs count frames and bytes of the traced datapath only."""
    was = sanitize.is_enabled()
    sanitize.enable(False)
    yield
    sanitize.enable(was)


def traced_dumbbell(**kwargs):
    """The frame-budget dumbbell with obs and INT on (the taps workload
    at a tenth of its duration)."""
    obs = ObsContext()
    run_dumbbell(ACDC, pairs=5, duration=0.02, mtu=1500, rate_bps=1e9,
                 rtt_probe=True, seed=1, obs=obs, int_tel=IntTelemetry(),
                 **kwargs)
    return obs


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
        self.filtered = 0
        self.sampled_out = 0
        self.dropped = 0
        self._tallies: _TallyCounter = _TallyCounter()
        self._sample_counters: Dict[str, int] = {}

    def emit(self, type_: str, *, flow=None, component: Optional[str] = None,
             severity: int = INFO, **fields) -> bool:
        self.emitted += 1
        config = self.config
        if config.validate:
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
        if severity < config.level:
            self.filtered += 1
            return False
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
            "filtered": self.filtered,
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
# reserved keys (rejected with validation on, shadowing with it off).
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
     "severity": st.sampled_from((DEBUG, INFO, WARNING, ERROR, 25))},
    optional={"fields": st.dictionaries(st.sampled_from(FIELD_NAMES),
                                        VALUES, max_size=4)})
CONFIGS = st.builds(
    TraceConfig,
    level=st.sampled_from((DEBUG, INFO, WARNING)),
    sample=st.dictionaries(st.sampled_from(("ecn.mark", "flow.state",
                                            "int.report")),
                           st.integers(0, 4), max_size=2),
    max_events=st.integers(0, 12),
    validate=st.booleans())


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
def test_a_traced_record_retains_at_most_220_bytes(unsanitized):
    """tracemalloc bytes a traced run's records hold: the bytes freed
    when the log is released, over the number of records.  Here this
    layout retains 165 B and an object plus a kwargs dict retained 352 B
    (196 and 385 on the full ``dumbbell_acdc_taps`` run)."""
    tracemalloc.start()
    try:
        obs = traced_dumbbell()
        bus = obs.bus
        gc.collect()
        records = len(bus)
        before = tracemalloc.get_traced_memory()[0]
        bus._log.clear()
        gc.collect()
        released = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 5000
    assert released / records <= 220


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
    shapes = {id(rec[1]) for rec in bus._log}
    assert len(shapes) == 2
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
@pytest.mark.parametrize("fate", ["recorded", "sampled_out", "filtered"])
def test_a_wrong_emit_raises_on_its_first_and_tenth_call(wrong, fate):
    error, kwargs = WRONG[wrong]
    config = TraceConfig(sample={"ecn.mark": 4, "not.a.type": 4})
    if fate == "filtered":
        kwargs = dict(kwargs, severity=DEBUG)
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
    assert bus.emitted == (bus.recorded + bus.filtered + bus.sampled_out
                           + bus.dropped + 10)


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
    obs = traced_dumbbell()
    assert calls["settle"] > 5000 and len(obs.bus) > 5000
    assert calls["re-entered"] == 0


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


@pytest.mark.parametrize("record", EDGE_HOPS)
def test_valid_hop_agrees_on_the_edges(record):
    assert valid_hop(record) is reference_valid_hop(record)


@pytest.mark.parametrize("echo", EDGE_ECHOES)
def test_valid_echo_agrees_on_the_edges(echo):
    assert valid_echo(echo) is reference_valid_echo(echo)
