"""Unit tests for the dependency-free metric registry (repro.obs.metrics)."""

import pytest

from repro.obs import MetricRegistry
from repro.obs.metrics import Histogram, pow2_bounds


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
def test_histogram_bucket_edges_are_upper_inclusive():
    h = Histogram("lat", bounds=[10, 100, 1000])
    for v in (5, 10, 11, 100, 999, 1000, 1001):
        h.record(v)
    snap = h.snapshot()
    # <=10 | <=100 | <=1000 | overflow
    assert snap["counts"] == [2, 2, 2, 1]
    assert snap["count"] == 7 and snap["sum"] == sum((5, 10, 11, 100,
                                                      999, 1000, 1001))
    assert snap["min"] == 5 and snap["max"] == 1001
    assert snap["bounds"] == [10, 100, 1000]


def test_an_empty_histogram_reports_no_extremes():
    h = Histogram("lat", bounds=[10])
    assert h.snapshot()["min"] is None and h.snapshot()["max"] is None
    h.record(0)
    snap = h.snapshot()
    assert snap["min"] == 0 and snap["max"] == 0
    assert type(snap["min"]) is int and type(snap["max"]) is int


def test_histogram_requires_increasing_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=[10, 10])
    with pytest.raises(ValueError):
        Histogram("bad", bounds=[])


def test_pow2_bounds():
    assert pow2_bounds(1500, 4) == (1500, 3000, 6000, 12000)
    with pytest.raises(ValueError):
        pow2_bounds(0, 4)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_get_or_create_is_idempotent():
    reg = MetricRegistry()
    a = reg.histogram("x", (1, 2))
    b = reg.histogram("x", (1, 2))
    assert a is b and len(reg) == 1


def test_registry_rejects_source_metric_name_clash():
    reg = MetricRegistry()
    reg.histogram("x", (1,))
    with pytest.raises(ValueError):
        reg.source("x", lambda: 1)
    reg.source("y", lambda: 1)
    with pytest.raises(ValueError):
        reg.histogram("y", (1,))


def test_snapshot_flattens_sources_and_sorts_names():
    reg = MetricRegistry()
    reg.histogram("zeta", (10,)).record(7)
    reg.source("alpha", lambda: {"b": 2, "a": 1})
    reg.source("scalar", lambda: 3.5)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    assert snap["alpha.a"] == 1 and snap["alpha.b"] == 2
    assert snap["scalar"] == 3.5
    assert snap["zeta"] == {"type": "histogram", "bounds": [10],
                            "counts": [1, 0], "count": 1, "sum": 7,
                            "min": 7, "max": 7}


def test_snapshot_reads_sources_live():
    reg = MetricRegistry()
    state = {"n": 0}
    reg.source("live", lambda: state["n"])
    assert reg.snapshot()["live"] == 0
    state["n"] = 9
    assert reg.snapshot()["live"] == 9


def test_contains():
    reg = MetricRegistry()
    reg.histogram("present", (1,))
    assert "present" in reg and "absent" not in reg
