"""A run is a value: the Scenario contract.

A :class:`Scenario` is frozen, picklable and hashable, and its one
canonical JSON form is the cache key.  Equal Scenarios share a key;
every result-affecting field reaches the key; the taps stay outside it.
"""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import AcdcConfig, FlowPolicy, PolicyEngine
from repro.experiments import common
from repro.experiments.common import ALL_SCHEMES, Scheme, Taps
from repro.experiments.hybrid import run_hybrid_dumbbell
from repro.experiments.runners import incast_scenario, run_incast
from repro.experiments.scenario import Flow, FluidCoupling, Probe, Scenario
from repro.guard import GuardConfig
from repro.obs import IntTelemetry, ObsContext
from repro.workloads.background import BackgroundFlowGroup

HOSTS = st.sampled_from(["h1", "h2", "h3", "s1", "r1", "recv"])
SMALL = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
POSITIVE = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
MAYBE_INT = st.none() | st.integers(min_value=1, max_value=1 << 20)

SCHEMES = st.sampled_from(ALL_SCHEMES) | st.builds(
    Scheme, st.sampled_from(["x", "y"]), st.sampled_from(["reno", "dctcp"]),
    st.booleans(), st.sampled_from(["plain", "acdc"]), st.booleans())
FLOWS = st.builds(
    Flow, HOSTS, HOSTS, st.integers(min_value=1, max_value=65535),
    st.sampled_from(["cubic", "dctcp", "reno"]), st.booleans(), SMALL,
    st.none() | SMALL, st.none() | SMALL, st.none() | POSITIVE, MAYBE_INT,
    MAYBE_INT, st.none() | st.integers(min_value=1, max_value=4),
    st.none() | st.booleans(),
    st.none() | st.integers(min_value=2, max_value=8))
GROUPS = st.builds(BackgroundFlowGroup, st.sampled_from(["a", "b"]),
                   st.integers(min_value=1, max_value=64), POSITIVE,
                   cc=st.sampled_from(["dctcp", "reno"]))
RULES = st.tuples(
    st.builds(PolicyEngine.match_src, HOSTS)
    | st.builds(PolicyEngine.match_dport, st.integers(1, 9000)),
    st.builds(FlowPolicy, st.sampled_from(["dctcp", "reno", "none"]),
              st.sampled_from([0.25, 0.5, 1.0])))

#: One strategy per Scenario field (``measure_from`` is drawn below the
#: duration): every field of the value, so a new field must come here.
FIELDS = {
    "scheme": SCHEMES,
    "topology": st.sampled_from(["dumbbell", "star", "parking_lot",
                                 "repro.experiments.int_attribution:"
                                 "edge_path"]),
    "size": st.integers(min_value=1, max_value=64),
    "duration": POSITIVE,
    "rate_bps": st.sampled_from([1e9, 10e9, 40e9]),
    "mtu": st.sampled_from([1500, 9000]),
    "seed": st.integers(min_value=0, max_value=1 << 16),
    "flows": st.lists(FLOWS, max_size=3).map(tuple),
    "probe": st.none() | st.builds(Probe, HOSTS, HOSTS, POSITIVE, SMALL,
                                   st.booleans()),
    "meters": st.booleans(),
    "fluid": st.none() | st.builds(
        FluidCoupling, st.sampled_from(["sw", "sw-left"]),
        st.integers(0, 3), st.lists(GROUPS, max_size=2).map(tuple),
        SMALL),
    "acdc": st.none() | st.builds(
        AcdcConfig, police=st.booleans(), hide_ecn=st.booleans(),
        feedback_mode=st.sampled_from(["pack", "fack-only"]),
        min_wnd_bytes=st.none() | st.integers(1, 9000)),
    "policy": st.none() | st.builds(FlowPolicy, max_rwnd=MAYBE_INT),
    "rules": st.lists(RULES, max_size=2).map(tuple),
    "guards": st.lists(st.tuples(HOSTS, st.builds(
        GuardConfig, clean_windows=st.integers(1, 64),
        seed=st.integers(0, 99))), max_size=2).map(tuple),
}
assert set(FIELDS) | {"measure_from"} == {
    f.name for f in dataclasses.fields(Scenario)}


@st.composite
def scenarios(draw):
    kwargs = {name: draw(strategy) for name, strategy in FIELDS.items()}
    kwargs["measure_from"] = kwargs["duration"] * draw(
        st.floats(min_value=0.0, max_value=0.99))
    return Scenario(**kwargs)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_pickle_and_canonical_json_round_trips_are_equal(scenario):
    pickled = pickle.loads(pickle.dumps(scenario))
    assert pickled == scenario and pickled.key() == scenario.key()
    wire = json.loads(json.dumps(scenario.to_json()))
    decoded = Scenario.from_json(wire)
    assert decoded == scenario and decoded.key() == scenario.key()
    assert hash(decoded) == hash(scenario)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_equal_scenarios_have_one_key(scenario):
    rebuilt = Scenario(**{f.name: getattr(scenario, f.name)
                          for f in dataclasses.fields(Scenario)})
    for twin in (rebuilt, copy.deepcopy(scenario)):
        assert twin is not scenario and twin == scenario
        assert twin.key() == scenario.key() and hash(twin) == hash(scenario)
    assert len({scenario, rebuilt}) == 1


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.sampled_from(sorted(FIELDS)), st.data())
def test_every_field_reaches_the_key(scenario, name, data):
    value = data.draw(FIELDS[name], label=name)
    assume(value != getattr(scenario, name))
    if name == "duration":
        assume(value > scenario.measure_from)
    changed = dataclasses.replace(scenario, **{name: value})
    assert changed.key() != scenario.key() and changed != scenario


def test_measure_from_reaches_the_key():
    base = incast_scenario(ALL_SCHEMES[0], 2, duration=0.02)
    assert dataclasses.replace(base, measure_from=0.01).key() != base.key()


def test_a_field_cannot_be_assigned():
    scenario = incast_scenario(ALL_SCHEMES[0], 2, duration=0.02)
    for name in ("duration", "flows", "seed"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scenario, name, getattr(scenario, name))


@pytest.mark.parametrize("duration, measure_from",
                         [(0.01, 0.01), (0.01, 0.02), (0.01, -0.001),
                          (0.0, 0.0), (-1.0, 0.0)])
def test_a_bad_duration_or_measure_from_is_rejected(duration, measure_from):
    scheme = ALL_SCHEMES[0]
    with pytest.raises(ValueError):
        Scenario(scheme, "dumbbell", 1, duration,
                 flows=(Flow.of(scheme, "s1", "r1"),),
                 measure_from=measure_from)


def test_taps_are_not_part_of_the_value():
    assert not ({f.name for f in dataclasses.fields(Taps)}
                & {f.name for f in dataclasses.fields(Scenario)})
    scenario = incast_scenario(ALL_SCHEMES[2], 3, duration=0.02, mtu=1500)
    key = scenario.key()
    common.Testbed(scenario,
                   Taps(obs=ObsContext(), int_tel=IntTelemetry())).run()
    assert scenario.key() == key


def test_runners_are_scenario_constructors():
    """A runner's result is its Scenario's run, with the taps beside it."""
    args = dict(duration=0.02, mtu=1500, seed=4)
    scheme = ALL_SCHEMES[2]
    direct = common.Testbed(incast_scenario(scheme, 3, **args)).run()
    runner = run_incast(scheme, 3, obs=ObsContext(), **args)
    assert direct.tputs_bps == runner.tputs_bps and direct.tputs_bps
    assert runner.telemetry and not direct.telemetry
    hybrid = run_hybrid_dumbbell(scheme, fg_pairs=1, duration=0.01)
    assert hybrid.fluid == {} and len(hybrid.flows) == 1
