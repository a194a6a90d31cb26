"""Smoke test of the perf ledger (not part of tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py -q

Runs every workload builder in-process at about 1/20 of the ledger's
size and checks what does not need a clock: metric names, exact
repetition of counts, seed sensitivity, and that tracing changes nothing.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run as ledger  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_exactly_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == wl.WORKLOADS[entry["name"]].why
        assert NAME.fullmatch(entry["name"])
    assert SPEC["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_counts_repeat_and_seed_matters(name):
    workload = wl.WORKLOADS[name]
    first = wl.run_once(workload, seed=0, scale=SCALE)
    again = wl.run_once(workload, seed=0, scale=SCALE)
    other = wl.run_once(workload, seed=1, scale=SCALE)
    assert first["counts"] == again["counts"]
    assert first["digest"] == again["digest"]
    assert first["counts"]["packets"] > 0
    assert other["digest"] != first["digest"]
    for stats in (first, other):
        assert all(stats["checks"].values()), stats["checks"]


def _traced_record(name: str, seed: int) -> dict:
    """What ``child.py --trace 1`` reports, built in-process."""
    workload = wl.WORKLOADS[name]
    duration = max(workload.min_duration, workload.duration * SCALE)
    tracer = tr.Tracer()
    tracer.install(tr.PACKET_TARGETS)
    try:
        start = time.perf_counter()
        raw = tracer.wrap(tr.ROOT, workload.scenario)(seed, duration)
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    stats = workload.extract(raw, duration, workload.tail_level)
    return {"wall_s": wall_s, "setup_s": 0.1, "peak_rss_mb": 1.0,
            "trace": tracer.report(), "calendar_us_per_event": 1.0, **stats}


def test_emitted_names_are_the_declared_names():
    record = _traced_record("dumbbell_acdc_taps", seed=0)
    end_to_end = ledger.end_to_end_values(record)
    per_layer = ledger.per_layer_values(record, untraced_wall_s=1.0)
    assert sorted(end_to_end) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert sorted(per_layer) == sorted(m["name"] for m in SPEC["per_layer"])
    for name in list(end_to_end) + list(per_layer):
        assert NAME.fullmatch(name), name
    # The taps workload is the one place obs does real work.
    assert per_layer["obs.tap_calls_per_pkt"] > 0
    assert per_layer["fluid.ticks"] == 0


def test_tracing_changes_nothing_and_comes_off():
    before = {(cls, attr): cls.__dict__[attr]
              for cls, attr in tr.PACKET_TARGETS + tr.RUNTIME_TARGETS}
    traced = _traced_record("dumbbell_acdc", seed=0)
    plain = wl.run_once(wl.WORKLOADS["dumbbell_acdc"], seed=0, scale=SCALE)
    assert traced["counts"] == plain["counts"]
    assert traced["digest"] == plain["digest"]
    assert all(cls.__dict__[attr] is fn for (cls, attr), fn in before.items())
    # Self times of all layers add up to the root span's duration.
    table = tr.layer_table(traced["trace"])
    root = traced["trace"]["spans"][tr.ROOT]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        root["total_s"], rel=1e-6)
    # No obs or fluid entry point is reached without taps or coupling.
    assert "obs.tap" not in table and "fluid.step" not in table


def test_value_weighs_sub_seeds_alike():
    # Rounds on sub-seeds 0, 1, 2, 0: the repeated sub-seed counts once.
    sample = ledger._sample([1.0, 5.0, 9.0, 3.0], [0, 1, 2, 0])
    assert (sample["value"], sample["n"]) == (5.0, 4)


def test_traced_sweep_child_logs_every_cell():
    # The one test that goes through a real child: the sweep's event and
    # cell logs cross the pool boundary by fork inheritance.
    record = ledger.run_child("figure_sweep", seed=0, base_seed=0, trace=1)
    assert all(record["checks"].values()), record["checks"]
    assert {"sweep.runs_logged", "sweep.cells_logged"} <= set(record["checks"])
    assert record["counts"]["events"] > 0
    assert len(record["cells"]) == record["counts"]["cells"]
