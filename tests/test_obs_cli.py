"""Tests for the trace-inspection CLI (python -m repro.obs)."""

import json

import pytest

from repro.obs import write_jsonl
from repro.obs.__main__ import main

RECORDS = [
    {"t": 0.001, "type": "flow.state", "sev": "info", "component": "vswitch",
     "flow": "s1:10000>r1:5000", "state": "insert"},
    {"t": 0.002, "type": "rwnd.rewrite", "sev": "info", "component": "vswitch",
     "flow": "s1:10000>r1:5000", "wnd_bytes": 3000, "rewritten": True},
    {"t": 0.003, "type": "ecn.mark", "sev": "info", "component": "vswitch",
     "flow": "s2:10001>r1:5001", "direction": "egress"},
    {"t": 0.004, "type": "flow.state", "sev": "warning", "component": "vswitch",
     "flow": "s1:10000>r1:5000", "state": "resurrect"},
    {"t": 0.005, "type": "fault.inject", "sev": "warning",
     "component": "faults", "flow": None, "cause": "loss", "n": 1},
]


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(RECORDS, path)
    return str(path)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unreadable_trace_is_io_error(tmp_path, capsys):
    assert main(["summary", str(tmp_path / "missing.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_summary(trace, capsys):
    assert main(["summary", trace]) == 0
    out = capsys.readouterr().out
    assert "5 events over [0.001000s, 0.005000s] virtual time" in out
    assert "2 flows" in out
    assert "flow.state" in out and "rwnd.rewrite" in out
    # Busiest flow first.
    assert out.index("s1:10000>r1:5000") < out.index("s2:10001>r1:5001")


def test_summary_empty_trace(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["summary", str(path)]) == 1


def test_grep_type_filter_prints_jsonl(trace, capsys):
    assert main(["grep", trace, "--type", "rwnd.rewrite"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["wnd_bytes"] == 3000


def test_grep_severity_and_time_filters(trace, capsys):
    assert main(["grep", trace, "--min-sev", "warning"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    assert main(["grep", trace, "--since", "0.003", "--until", "0.004"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_grep_no_match_exits_1(trace, capsys):
    assert main(["grep", trace, "--type", "sanitizer.violation"]) == 1


def test_grep_limit(trace, capsys):
    assert main(["grep", trace, "--limit", "2"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


@pytest.mark.parametrize("command", ["grep", "timeline", "int"])
@pytest.mark.parametrize("limit", ["0", "-3"])
def test_limit_below_one_is_usage_error(trace, capsys, command, limit):
    """Regression: ``--limit 0`` (or a negative limit) printed one record
    and exited 0, and ``timeline`` claimed it was "limited to 0 events"."""
    assert main([command, trace, "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_timeline_defaults_to_first_flow(trace, capsys):
    assert main(["timeline", trace]) == 0
    out = capsys.readouterr().out
    assert "using first flow s1:10000>r1:5000" in out
    # Flow-scoped rows only: the s2 flow and flowless fault are excluded.
    assert "ecn.mark" not in out and "fault.inject" not in out
    assert "state=insert" in out and "rewritten=True" in out


def test_timeline_explicit_flow_substring(trace, capsys):
    assert main(["timeline", trace, "--flow", "s2:"]) == 0
    out = capsys.readouterr().out
    assert "ecn.mark" in out and "rwnd.rewrite" not in out


def test_timeline_unknown_flow_exits_1(trace, capsys):
    assert main(["timeline", trace, "--flow", "nope"]) == 1
    assert "no events for flow" in capsys.readouterr().err


def test_timeline_flowless_trace_exits_1(tmp_path, capsys):
    path = tmp_path / "flowless.jsonl"
    write_jsonl([{"t": 0.0, "type": "fault.inject", "sev": "warning",
                  "component": "faults", "flow": None, "cause": "loss"}],
                path)
    assert main(["timeline", str(path)]) == 1


def test_grep_flow_filter(trace, capsys):
    assert main(["grep", trace, "--flow", "s2:"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "ecn.mark"


INT_RECORDS = [
    {"t": 0.010, "type": "int.report", "sev": "info", "component": "int",
     "flow": "s1:10000>recv:5000", "status": "ok", "serial": 1,
     "bottleneck": "sw-edge.p1", "q_max_bytes": 45000.0,
     "residence_s": 3.2e-4, "path": ["sw-core.p0", "sw-edge.p1"]},
    {"t": 0.012, "type": "int.report", "sev": "info", "component": "int",
     "flow": "s2:10001>recv:5000", "status": "ok", "serial": 1,
     "bottleneck": "sw-edge.p1", "q_max_bytes": 30000.0,
     "residence_s": 2.0e-4, "path": ["sw-core.p0", "sw-edge.p1"]},
    {"t": 0.013, "type": "int.path_change", "sev": "info", "component": "int",
     "flow": "s1:10000>recv:5000", "path": ["sw-core.p0", "sw-edge.p2"]},
    {"t": 0.014, "type": "int.report", "sev": "warning", "component": "int",
     "flow": "s1:10000>recv:5000", "status": "invalid_echo"},
    {"t": 0.015, "type": "int.report", "sev": "info", "component": "int",
     "flow": "s1:10000>recv:5000", "status": "ok", "serial": 2,
     "bottleneck": "sw-core.p0", "q_max_bytes": 15000.0,
     "residence_s": 1.0e-4, "path": ["sw-core.p0", "sw-edge.p2"]},
]


@pytest.fixture
def int_trace(tmp_path):
    path = tmp_path / "int.jsonl"
    write_jsonl(RECORDS + INT_RECORDS, path)
    return str(path)


def test_int_timeline_and_attribution(int_trace, capsys):
    assert main(["int", int_trace]) == 0
    out = capsys.readouterr().out
    assert "per-flow hop timeline:" in out
    assert "bottleneck=sw-edge.p1" in out
    assert "path -> ['sw-core.p0', 'sw-edge.p2']" in out
    assert "degraded: invalid_echo" in out
    assert "bottleneck attribution:" in out
    # Two of three ok reports name the edge hop; it ranks first.
    assert out.index("sw-edge.p1 ") < out.rindex("sw-core.p0 ")
    assert "66.7%" in out and "33.3%" in out
    assert "(1 degraded report(s) not attributed)" in out
    # Non-INT events (flow.state etc.) never leak into the timeline.
    assert "flow.state" not in out


def test_int_flow_filter(int_trace, capsys):
    assert main(["int", int_trace, "--flow", "s2:"]) == 0
    out = capsys.readouterr().out
    assert "s2:10001>recv:5000" in out and "s1:10000" not in out
    assert "100.0%" in out


def test_int_without_int_events_exits_1(trace, capsys):
    assert main(["int", trace]) == 1
    assert "no int.* events" in capsys.readouterr().err
