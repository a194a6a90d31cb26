"""Fixture suites for the whole-program checkers RL101, RL102 and RL104.

Each checker gets a minimal *bad* fixture it must fire on and an
idiomatic *good* twin it must stay silent on — the good twins are the
sanctioned idioms from the real tree (partial-not-lambda, bound methods,
dispatch-table literals), so these tests double as the
specification of what the analyzer must never start flagging.
"""

import textwrap

from repro.analysis.checkers import AnalyzeConfig, analyze_paths


def write_pkg(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def analyze(tmp_path, files, select=(), pickle_roots=("pkg.service",)):
    root = write_pkg(tmp_path, files)
    config = AnalyzeConfig(select=select, pickle_roots=pickle_roots)
    findings, _stats = analyze_paths([str(root)], config)
    return findings


def codes(findings):
    return [v.code for v in findings]


# ---------------------------------------------------------------------------
# One pass: the per-file rules run beside the cross-file checkers
# ---------------------------------------------------------------------------
def test_analyze_reports_per_file_rules(tmp_path):
    findings = analyze(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/m.py": "outstanding = snd_nxt - snd_una\n",
    })
    assert codes(findings) == ["RL001"]
    assert findings[0].path.endswith("m.py")


# ---------------------------------------------------------------------------
# RL101: determinism taint
# ---------------------------------------------------------------------------
class TestRL101:
    def test_cross_file_laundered_wall_clock_fires(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/helpers.py": """\
                import time


                def now_s():
                    return time.time()
                """,
            "pkg/engine.py": """\
                from .helpers import now_s


                class Engine:
                    def tick(self):
                        self.t0 = now_s()
                """,
        }, select=("RL101",))
        assert codes(findings) == ["RL101"]
        assert findings[0].path.endswith("engine.py")
        assert "wall-clock" in findings[0].message
        assert "now_s()" in findings[0].message

    def test_two_hop_laundering_fires(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                import time


                def raw():
                    return time.perf_counter()
                """,
            "pkg/b.py": """\
                from .a import raw


                def wrapped():
                    value = raw()
                    return value * 2
                """,
            "pkg/c.py": """\
                from .b import wrapped


                class Meter:
                    def sample(self):
                        self.last = wrapped()
                """,
        }, select=("RL101",))
        assert codes(findings) == ["RL101"]
        assert findings[0].path.endswith("c.py")

    def test_local_laundering_through_arithmetic_fires(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/m.py": """\
                import time


                class A:
                    def m(self):
                        t = time.time()
                        u = t + 1.0
                        self.deadline = u
                """,
        }, select=("RL101",))
        assert codes(findings) == ["RL101"]

    def test_unseeded_rng_taint_fires_with_rng_kind(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/m.py": """\
                import random


                def draw():
                    return random.random()


                class A:
                    def m(self):
                        self.jitter = draw()
                """,
        }, select=("RL101",))
        assert codes(findings) == ["RL101"]
        assert "rng" in findings[0].message

    def test_sim_clock_and_seeded_stream_stay_silent(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/m.py": """\
                import random


                class A:
                    def m(self, sim, seed):
                        self.t0 = sim.now
                        self.rng = random.Random(seed)
                        self.jitter = self.rng.random()
                """,
        }, select=("RL101",))
        assert findings == []

    def test_suppression_with_reason_is_honoured(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/m.py": """\
                import time  # repro-lint: disable-file=RL101 (host telemetry, never enters the run)


                class A:
                    def m(self):
                        self.t0 = time.time()
                """,
        }, select=("RL101",))
        assert findings == []


# ---------------------------------------------------------------------------
# RL102: trace contract
# ---------------------------------------------------------------------------
_SCHEMA_MOD = """\
    EVENT_SCHEMAS = {
        "flow.start": ("src", "dst"),
        "flow.stop": ("reason",),
    }
    """


class TestRL102:
    def test_unregistered_type_and_missing_field_fire(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": _SCHEMA_MOD,
            "pkg/user.py": """\
                class C:
                    def __init__(self, bus):
                        self.bus = bus

                    def go(self):
                        self.bus.emit("flow.start", src=1, dst=2)
                        self.bus.emit("flow.strt", src=1, dst=2)
                        self.bus.emit("flow.stop")
                """,
        }, select=("RL102",))
        messages = sorted(v.message for v in findings)
        assert codes(findings) == ["RL102", "RL102"]
        assert any("not registered" in m for m in messages)
        assert any("missing required field(s): reason" in m
                   for m in messages)

    def test_reserved_envelope_kwargs_fire(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": _SCHEMA_MOD,
            "pkg/user.py": """\
                class C:
                    def __init__(self, bus):
                        self.bus = bus

                    def go(self):
                        self.bus.emit("flow.start", src=1, dst=2, t=0.5)
                        self.bus.emit("flow.stop", reason="x")
                """,
        }, select=("RL102",))
        assert codes(findings) == ["RL102"]
        assert "reserved envelope field(s) t" in findings[0].message

    def test_splat_site_skips_missing_field_check(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": _SCHEMA_MOD,
            "pkg/user.py": """\
                class C:
                    def __init__(self, bus):
                        self.bus = bus

                    def go(self, kw):
                        self.bus.emit("flow.start", **kw)
                        self.bus.emit("flow.stop", **kw)
                """,
        }, select=("RL102",))
        assert findings == []

    def test_dead_schema_fires_at_registration_line(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": _SCHEMA_MOD,
            "pkg/user.py": """\
                class C:
                    def __init__(self, bus):
                        self.bus = bus

                    def go(self):
                        self.bus.emit("flow.start", src=1, dst=2)
                """,
        }, select=("RL102",))
        assert codes(findings) == ["RL102"]
        assert findings[0].path.endswith("trace.py")
        assert "'flow.stop'" in findings[0].message
        assert "dead schema" in findings[0].message

    def test_string_literal_in_dispatch_table_counts_as_live(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": _SCHEMA_MOD,
            "pkg/user.py": """\
                KIND_TO_TYPE = {"stop": "flow.stop"}


                class C:
                    def __init__(self, bus):
                        self.bus = bus

                    def go(self, kind, **fields):
                        self.bus.emit("flow.start", src=1, dst=2)
                        self.bus.emit(KIND_TO_TYPE[kind], **fields)
                """,
        }, select=("RL102",))
        assert findings == []

    def test_dispatch_table_in_schema_owner_counts_as_live(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": """\
                EVENT_SCHEMAS = {
                    "flow.start": ("src", "dst"),
                    "flow.stop": ("reason",),
                }
                KIND_TO_TYPE = {"stop": "flow.stop"}
                """,
            "pkg/user.py": """\
                class C:
                    def __init__(self, bus):
                        self.bus = bus

                    def go(self):
                        self.bus.emit("flow.start", src=1, dst=2)
                """,
        }, select=("RL102",))
        assert findings == []


    def test_channel_sites_fire_like_emit_sites(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": _SCHEMA_MOD,
            "pkg/user.py": """\
                class C:
                    def __init__(self, bus):
                        self.start = bus.channel("flow.start", ("src",),
                                                 component="c")
                        self.typo = bus.channel("flow.strt", ("src", "dst"))
                        self.stop = bus.channel("flow.stop",
                                                ("reason", "t"))
                """,
        }, select=("RL102",))
        messages = sorted(v.message for v in findings)
        assert codes(findings) == ["RL102"] * 3
        assert messages == [
            "channel('flow.start') is missing required field(s): dst",
            "channel('flow.stop') passes reserved envelope field(s) t; "
            "the bus writes those itself",
            "channel('flow.strt') is not registered in EVENT_SCHEMAS; "
            "register the event type or fix the spelling"]

    def test_channel_sites_with_literal_or_dynamic_names_pass(self,
                                                              tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/trace.py": _SCHEMA_MOD,
            "pkg/user.py": """\
                NAMES = ("src",)


                class C:
                    def __init__(self, bus, names):
                        self.start = bus.channel("flow.start",
                                                 ("src", "dst", "extra"),
                                                 component="c")
                        self.stop = bus.channel("flow.stop", names)
                        self.other = bus.channel("flow.start", NAMES)

                    def go(self, flow):
                        self.start.emit(flow, 1, 2, 3)
                """,
        }, select=("RL102",))
        assert findings == []


# ---------------------------------------------------------------------------
# RL104: snapshot reachability
# ---------------------------------------------------------------------------
_STATE_MOD = """\
    from functools import partial

    _events = []


    class Box:
        def bad_lambda(self):
            self.cb = lambda x: x + 1

        def bad_local(self):
            def helper(x):
                return x
            self.cb = helper

        def bad_gen(self):
            self.items = (x for x in range(3))

        def bad_sched(self, sim):
            sim.schedule(1.0, lambda: None)

        def bad_registry(self):
            self.log = _events

        def good_partial(self):
            self.cb = partial(int, "3")

        def good_bound(self, sim):
            sim.schedule(1.0, self._tick)

        def good_param_shadow(self, log):
            self.log = log

        def _tick(self):
            pass
    """


class TestRL104:
    def test_all_unpicklable_stores_fire_in_picklable_set(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/service.py": "from . import state\n",
            "pkg/state.py": _STATE_MOD,
        }, select=("RL104",))
        assert codes(findings) == ["RL104"] * 5
        blob = "\n".join(v.message for v in findings)
        assert "lambda stored on 'self.cb'" in blob
        assert "'helper'" in blob
        assert "generator object stored on 'self.items'" in blob
        assert "passed to schedule()" in blob
        assert "aliases module-global mutable state '_events'" in blob

    def test_module_outside_pickle_closure_is_silent(self, tmp_path):
        # Same defects, but nothing the pickle roots reach imports the
        # module — lambdas there never meet a checkpoint.
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/service.py": "X = 1\n",
            "pkg/outside.py": _STATE_MOD,
        }, select=("RL104",))
        assert findings == []

    def test_function_local_import_does_not_extend_closure(self, tmp_path):
        # A function-level import is the sanctioned way to keep a module
        # OUT of the pickle closure; it must not create an import edge.
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/service.py": """\
                def lazily():
                    from . import outside
                    return outside
                """,
            "pkg/outside.py": _STATE_MOD,
        }, select=("RL104",))
        assert findings == []

    def test_dataclass_class_body_factory_lambda_is_silent(self, tmp_path):
        findings = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/service.py": """\
                from dataclasses import dataclass, field


                @dataclass
                class Cfg:
                    sampling: dict = field(default_factory=lambda: {"a": 1})
                """,
        }, select=("RL104",))
        assert findings == []
