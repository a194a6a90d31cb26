"""Runtime failure handling: a raising cell propagates, a cell whose
worker keeps dying resolves to an uncached ``worker_crash`` cell_error,
and corrupt cache entries are counted misses."""

import json
import os
import signal
import time

import pytest

from repro.analysis.sanitize import InvariantViolation
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


def always_raises(x):
    raise ValueError(f"poisoned cell {x}")


def violates(x):
    raise InvariantViolation("conservation", "bytes leaked", flow=("h1", x),
                             sim_time=0.25, host="h1", seed=3,
                             flight_dump="flight.jsonl")


def kill_self(x):
    os.kill(os.getpid(), signal.SIGKILL)


def slow(sentinel):
    """Mark the cell started, then take a second."""
    open(sentinel, "w").close()
    time.sleep(1.0)
    return 0


DOUBLE = f"{__name__}:double"
RAISES = f"{__name__}:always_raises"
VIOLATES = f"{__name__}:violates"
KILL_SELF = f"{__name__}:kill_self"
SLOW = f"{__name__}:slow"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_cell_error_shape_round_trips():
    err = cell_error("m:f", "worker_crash", "worker process died", 2)
    assert is_cell_error(err)
    assert not is_cell_error({"result": 3})
    assert json.loads(json.dumps(err)) == err


# ---------------------------------------------------------------------------
# A raising cell propagates; a dying worker is the only contained failure
# ---------------------------------------------------------------------------

def test_unguarded_runtime_still_propagates():
    for jobs in (1, 2):
        rt = Runtime(jobs=jobs)
        with pytest.raises(ValueError, match="poisoned"):
            rt.map([RunSpec(DOUBLE, {"x": 1}), RunSpec(RAISES, {"x": 1})])
        assert rt.stats.worker_crashes == 0


def test_pool_reports_a_raising_cell_before_the_queue_runs(tmp_path):
    """Regression: leaving the pool joined it, so the error waited for
    every queued cell to run first."""
    rt = Runtime(jobs=2)
    slow_cells = [RunSpec(SLOW, {"sentinel": str(tmp_path / f"s{i}")})
                  for i in range(8)]
    with pytest.raises(ValueError, match="poisoned"):
        rt.map([RunSpec(RAISES, {"x": 1})] + slow_cells)
    assert len(list(tmp_path.iterdir())) <= rt.jobs + 1


def test_pool_cell_invariant_violation_reaches_the_caller():
    rt = Runtime(jobs=2)
    with pytest.raises(InvariantViolation) as info:
        rt.map([RunSpec(DOUBLE, {"x": 1}), RunSpec(VIOLATES, {"x": 7})])
    exc = info.value
    assert (exc.invariant, exc.detail, exc.flow, exc.sim_time, exc.host,
            exc.seed, exc.flight_dump) == \
        ("conservation", "bytes leaked", ("h1", 7), 0.25, "h1", 3,
         "flight.jsonl")
    assert rt.stats.worker_crashes == 0


def test_error_results_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    rt = Runtime(jobs=2, cache=cache)
    spec = RunSpec(KILL_SELF, {"x": 7})
    result, neighbour = rt.map([spec, RunSpec(DOUBLE, {"x": 4})])
    assert neighbour == 8
    assert is_cell_error(result)
    assert result["cell_error"]["kind"] == "worker_crash"
    assert spec.key() not in cache
    # The next run retries for real instead of replaying the failure.
    assert rt.stats.cache_hits == 0


# ---------------------------------------------------------------------------
# Corrupt cache entries: miss + counter
# ---------------------------------------------------------------------------

def corrupt_entry(cache: ResultCache, spec: RunSpec) -> None:
    (cache.root / f"{spec.key()}.json").write_text('{"spec": {}, "resu',
                                                   encoding="utf-8")


def test_corrupt_cache_entry_counts_and_reruns(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    rt = Runtime(jobs=1, cache=cache)
    spec = RunSpec(DOUBLE, {"x": 21})
    corrupt_entry(cache, spec)
    assert rt.map([spec]) == [42]  # miss -> rerun, not a crash
    assert cache.corrupt == 1
    assert rt.stats.cache_corrupt == 1
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
