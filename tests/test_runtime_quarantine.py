"""Guarded runtime: per-cell timeouts, seeded retries, poisoned-cell
quarantine, and corrupt-cache observability."""

import json
import time

import pytest

from repro.runtime import (
    ResultCache,
    Runtime,
    RunSpec,
    cell_error,
    is_cell_error,
)


# Module-level workers: run specs reference them as f"{__name__}:name".
def double(x):
    return x * 2


def sleepy(x, for_s=30.0):
    time.sleep(for_s)
    return x


def always_raises(x):
    raise ValueError(f"poisoned cell {x}")


def flaky(x, sentinel):
    """Fails on the first attempt, succeeds once the sentinel exists —
    deterministic across processes, unlike in-memory attempt counters."""
    try:
        with open(sentinel, "x", encoding="utf-8") as fh:
            fh.write("attempt 1")
    except FileExistsError:
        return x * 10
    raise RuntimeError("first attempt always fails")


DOUBLE = f"{__name__}:double"
SLEEPY = f"{__name__}:sleepy"
RAISES = f"{__name__}:always_raises"
FLAKY = f"{__name__}:flaky"


# ---------------------------------------------------------------------------
# Construction / helpers
# ---------------------------------------------------------------------------

def test_guard_params_validated():
    with pytest.raises(ValueError):
        Runtime(cell_timeout_s=0.0)
    with pytest.raises(ValueError):
        Runtime(retries=-1)
    assert Runtime(cell_timeout_s=1.0).quarantine  # timeout implies guard


def test_cell_error_shape_round_trips():
    err = cell_error("m:f", "timeout", "cell exceeded 1s", 2)
    assert is_cell_error(err)
    assert not is_cell_error({"result": 3})
    assert json.loads(json.dumps(err)) == err


# ---------------------------------------------------------------------------
# Serial guarded path: exception containment + retry
# ---------------------------------------------------------------------------

def test_serial_retry_then_success(tmp_path):
    sentinel = str(tmp_path / "sentinel")
    rt = Runtime(jobs=1, quarantine=True, retries=1)
    results = rt.map([RunSpec(DOUBLE, {"x": 3}),
                      RunSpec(FLAKY, {"x": 4, "sentinel": sentinel})])
    assert results == [6, 40]
    assert rt.stats.retries_used == 1 and rt.stats.quarantined == 0


def test_serial_repeated_failure_quarantines_without_aborting():
    rt = Runtime(jobs=1, quarantine=True, retries=1)
    results = rt.map([RunSpec(DOUBLE, {"x": 1}),
                      RunSpec(RAISES, {"x": 9}),
                      RunSpec(DOUBLE, {"x": 2})])
    assert results[0] == 2 and results[2] == 4
    assert is_cell_error(results[1])
    detail = results[1]["cell_error"]
    assert detail["kind"] == "exception" and detail["attempts"] == 2
    assert "poisoned cell 9" in detail["message"]
    assert rt.stats.quarantined == 1


def test_unguarded_runtime_still_propagates():
    with pytest.raises(ValueError, match="poisoned"):
        Runtime(jobs=1).map([RunSpec(RAISES, {"x": 1})])


# ---------------------------------------------------------------------------
# Pool guarded path: timeouts tear the stuck worker down
# ---------------------------------------------------------------------------

def test_pool_timeout_quarantines_stuck_cell_without_wedging():
    rt = Runtime(jobs=2, cell_timeout_s=1.0, retries=0)
    started = time.monotonic()
    results = rt.map([RunSpec(SLEEPY, {"x": 1, "for_s": 60.0}),
                      RunSpec(DOUBLE, {"x": 2}),
                      RunSpec(DOUBLE, {"x": 3}),
                      RunSpec(DOUBLE, {"x": 4})])
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, "a stuck worker must not wedge the merge"
    assert is_cell_error(results[0])
    assert results[0]["cell_error"]["kind"] == "timeout"
    assert results[1:] == [4, 6, 8]
    assert rt.stats.quarantined == 1


def test_pool_timeout_retries_before_quarantine():
    rt = Runtime(jobs=2, cell_timeout_s=0.5, retries=1)
    results = rt.map([RunSpec(SLEEPY, {"x": 1, "for_s": 60.0}),
                      RunSpec(DOUBLE, {"x": 5})])
    assert is_cell_error(results[0])
    assert results[0]["cell_error"]["attempts"] == 2
    assert results[1] == 10
    assert rt.stats.retries_used == 1 and rt.stats.quarantined == 1


def test_pool_exception_quarantine_preserves_order():
    rt = Runtime(jobs=2, quarantine=True, retries=0)
    results = rt.map([RunSpec(DOUBLE, {"x": i}) if i != 2
                      else RunSpec(RAISES, {"x": i})
                      for i in range(5)])
    assert [is_cell_error(r) for r in results] == \
        [False, False, True, False, False]
    assert [r for r in results if not is_cell_error(r)] == [0, 2, 6, 8]


def test_error_results_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    rt = Runtime(jobs=1, quarantine=True, retries=0, cache=cache)
    spec = RunSpec(RAISES, {"x": 7})
    assert is_cell_error(rt.map([spec])[0])
    assert spec.key() not in cache
    # The next run retries for real instead of replaying the failure.
    assert rt.stats.cache_hits == 0


# ---------------------------------------------------------------------------
# Corrupt cache entries: miss + counter
# ---------------------------------------------------------------------------

def corrupt_entry(cache: ResultCache, spec: RunSpec) -> str:
    key = spec.key()
    (cache.root / f"{key}.json").write_text('{"spec": {}, "resu',
                                            encoding="utf-8")
    return key


def test_corrupt_cache_entry_counts_and_reruns(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    rt = Runtime(jobs=1, cache=cache)
    spec = RunSpec(DOUBLE, {"x": 21})
    key = corrupt_entry(cache, spec)
    assert rt.map([spec]) == [42]  # miss -> rerun, not a crash
    assert cache.corrupt == 1 and cache.corrupt_keys == [key]
    assert rt.stats.cache_corrupt == 1
    assert rt.telemetry()["cache_corrupt"] == 1
    # The rerun overwrote the torn entry: second lookup is a clean hit.
    assert rt.map([spec]) == [42]
    assert rt.stats.cache_hits == 1 and cache.corrupt == 1


def test_corrupt_entry_without_obs_still_counts(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    rt = Runtime(jobs=1, cache=cache)
    spec = RunSpec(DOUBLE, {"x": 2})
    corrupt_entry(cache, spec)
    assert rt.map([spec]) == [4]
    assert rt.stats.cache_corrupt == 1
