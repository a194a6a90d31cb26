"""Tests for the parallel experiment runtime (specs, cache, pool).

The determinism contract under test: for the same specs, the process-pool
path, the serial path, and a cache hit all return byte-identical results
(canonical JSON), and a warm cache executes nothing.
"""

import json

import pytest

from repro.experiments import ACDC, DCTCP, fig18_19_incast
from repro.experiments.runners import incast_scenario
from repro.runtime import (
    ResultCache,
    RunSpec,
    Runtime,
    canonical_json,
    canonicalize,
    resolve,
)

# A tiny but real experiment cell: full TCP/vSwitch datapath, ~100 ms sim.
CELL = "repro.experiments.fig18_19_incast:_cell"


def cell_kw(seed=0):
    """The cell's kwargs: a 4-to-1 DCTCP incast Scenario."""
    return {"scenario": incast_scenario(DCTCP, 4, duration=0.05, mtu=1500,
                                        seed=seed).to_json()}


CELL_KW = cell_kw()


def double(x):
    """Module-importable helper for cheap runtime tests."""
    return {"x": x, "twice": 2 * x}


# Reference this module the way pytest imported it, so pool workers
# (which inherit sys.path) can re-resolve the helper.
DOUBLE = f"{__name__}:double"


# ---------------------------------------------------------------------------
# Specs: canonical hashing
# ---------------------------------------------------------------------------
def test_spec_key_is_stable_and_order_insensitive():
    a = RunSpec(CELL, {"seed": 1, "duration": 0.1})
    b = RunSpec(CELL, {"duration": 0.1, "seed": 1})
    assert a.key() == b.key()
    assert len(a.key()) == 64  # sha256 hex


def test_spec_key_distinguishes_fn_and_kwargs():
    base = RunSpec(DOUBLE, {"x": 1})
    assert base.key() != RunSpec(DOUBLE, {"x": 2}).key()
    assert base.key() != RunSpec(CELL, {"x": 1}).key()


def test_spec_rejects_non_json_kwargs():
    with pytest.raises(TypeError):
        RunSpec(DOUBLE, {"x": object()}).key()


def test_resolve_validates_references():
    assert resolve(DOUBLE) is double
    with pytest.raises(ValueError):
        resolve("no-colon-here")
    with pytest.raises(ModuleNotFoundError):
        resolve("repro.not_a_module:fn")
    with pytest.raises(AttributeError):
        resolve("repro.runtime:not_a_function")


def test_canonicalize_normalises_tuples():
    assert canonicalize({"a": (1, 2), "b": {"nested": (3,)}}) == \
        {"a": [1, 2], "b": {"nested": [3]}}


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------
def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(DOUBLE, {"x": 21})
    assert cache.get(spec.key()) == (False, None)
    cache.put(spec.key(), spec.describe(), {"x": 21, "twice": 42})
    hit, value = cache.get(spec.key())
    assert hit and value == {"x": 21, "twice": 42}
    assert spec.key() in cache
    assert len(cache) == 1


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(DOUBLE, {"x": 1})
    (tmp_path / f"{spec.key()}.json").write_text("{torn write",
                                                 encoding="utf-8")
    assert cache.get(spec.key()) == (False, None)
    # The runtime recovers by re-running and overwriting the entry.
    rt = Runtime(jobs=1, cache=cache)
    assert rt.map([spec])[0] == {"x": 1, "twice": 2}
    assert cache.get(spec.key())[0]


def test_cache_refuses_non_json_results(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(TypeError):
        cache.put("k" * 64, {"fn": "x"}, {"bad": object()})
    assert len(cache) == 0  # no torn entry left behind


def test_cache_lost_write_race_is_benign(tmp_path):
    import os

    cache = ResultCache(tmp_path)
    spec = RunSpec(DOUBLE, {"x": 3})
    # A concurrent twin holds the O_EXCL temp file for this key.
    tmp = tmp_path / f"{spec.key()}.json.tmp.{os.getpid()}"
    twin = '{"spec": {}, "result": {"x": 3, "twice": 6}}'
    tmp.write_text(twin, encoding="utf-8")
    cache.put(spec.key(), spec.describe(), {"x": 3, "twice": 6})  # no raise
    # The loser writes no entry and leaves the twin's temp file alone.
    assert not (tmp_path / f"{spec.key()}.json").exists()
    assert tmp.read_text(encoding="utf-8") == twin
    # Entries are content-addressed: once the winner lands, a hit returns
    # the equivalent result.
    os.replace(tmp, tmp_path / f"{spec.key()}.json")
    hit, value = cache.get(spec.key())
    assert hit and value == {"x": 3, "twice": 6}


# ---------------------------------------------------------------------------
# Runtime: ordering, caching, parallel/serial equivalence
# ---------------------------------------------------------------------------
def test_map_returns_results_in_spec_order():
    rt = Runtime(jobs=1)
    results = rt.map([RunSpec(DOUBLE, {"x": i}) for i in (5, 3, 9)])
    assert [r["x"] for r in results] == [5, 3, 9]
    assert rt.stats.executed == 3


def test_warm_cache_skips_completed_runs(tmp_path):
    specs = [RunSpec(DOUBLE, {"x": i}) for i in range(4)]
    cold = Runtime(jobs=1, cache=tmp_path)
    first = cold.map(specs)
    assert cold.stats.executed == 4 and cold.stats.cache_hits == 0
    warm = Runtime(jobs=1, cache=tmp_path)
    second = warm.map(specs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 4
    assert canonical_json(first) == canonical_json(second)


def test_partial_cache_executes_only_the_gap(tmp_path):
    rt = Runtime(jobs=1, cache=tmp_path)
    rt.map([RunSpec(DOUBLE, {"x": 0}), RunSpec(DOUBLE, {"x": 1})])
    rt2 = Runtime(jobs=1, cache=tmp_path)
    results = rt2.map([RunSpec(DOUBLE, {"x": i}) for i in range(4)])
    assert rt2.stats.cache_hits == 2 and rt2.stats.executed == 2
    assert [r["x"] for r in results] == [0, 1, 2, 3]


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        Runtime(jobs=0)


def test_parallel_results_byte_identical_to_serial(tmp_path):
    """The acceptance-criterion determinism test, on a real datapath cell.

    Two seeds x one (scheme, config) cell: the pool path (2 workers) must
    merge to the same bytes as the serial path, and a warm cache must
    reproduce them again without executing anything.
    """
    specs = [RunSpec(CELL, cell_kw(seed)) for seed in (0, 1)]
    serial = Runtime(jobs=1).map(specs)
    parallel_rt = Runtime(jobs=2, cache=tmp_path)
    parallel = parallel_rt.map(specs)
    assert parallel_rt.stats.executed == 2
    assert canonical_json(serial) == canonical_json(parallel)
    warm = Runtime(jobs=2, cache=tmp_path)
    cached = warm.map(specs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 2
    assert canonical_json(cached) == canonical_json(serial)


def test_telemetry_byte_identical_across_serial_pool_and_cache(tmp_path):
    """Telemetry is part of the determinism contract: a traced cell's
    metric snapshot and full trace must be byte-identical whether the
    cell ran serially, in a worker process, or replayed from cache.  The
    cell runs AC/DC, whose vSwitches trace their decisions: a DCTCP cell
    (guests behind plain OVS) records metrics but no trace."""
    kwargs = {"scenario": incast_scenario(ACDC, 4, duration=0.05, mtu=1500,
                                          seed=0).to_json()}
    specs = [RunSpec(CELL, {**kwargs, "telemetry": True})]
    serial = Runtime(jobs=1).map(specs)
    pool_rt = Runtime(jobs=2, cache=tmp_path)
    pooled = pool_rt.map(specs)
    assert pool_rt.stats.executed == 1
    warm = Runtime(jobs=2, cache=tmp_path)
    cached = warm.map(specs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 1
    assert canonical_json(serial) == canonical_json(pooled)
    assert canonical_json(serial) == canonical_json(cached)
    telemetry = serial[0]["telemetry"]
    assert telemetry["trace"]["recorded"] > 0
    assert telemetry["metrics"]["engine.events_processed"] > 0
    assert serial[0]["trace"], "traced cell must carry its records"
    # The telemetry flag is part of the cache key: the untraced variant
    # is a distinct cell, so no stale hit can cross the boundary.
    assert RunSpec(CELL, {**kwargs, "telemetry": True}).key() != \
        RunSpec(CELL, kwargs).key()


def test_figure_level_parallel_matches_serial():
    """fig18/19 via its public multi-seed API: pool == serial, merged
    seed-ordered."""
    kwargs = dict(counts=(4,), duration=0.05, mtu=1500, seeds=[0, 1])
    serial = fig18_19_incast.run(runtime=Runtime(jobs=1), **kwargs)
    parallel = fig18_19_incast.run(runtime=Runtime(jobs=2), **kwargs)
    assert serial["seeds"] == [0, 1]
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)
    # Single-seed call keeps the legacy shape and equals per-seed slice 0.
    single = fig18_19_incast.run(counts=(4,), duration=0.05, mtu=1500, seed=0)
    assert json.dumps(single, sort_keys=True) == \
        json.dumps(serial["per_seed"][0], sort_keys=True)
