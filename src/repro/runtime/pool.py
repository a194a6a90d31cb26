"""Process-pool experiment runtime with deterministic merging.

The paper's §5 figures are sweeps of *independent* (scheme, seed, config)
runs — each builds its own :class:`~repro.sim.Simulator` and shares no
state with its neighbours — so they parallelise perfectly across cores.
:class:`Runtime` fans a list of :class:`~repro.runtime.spec.RunSpec` out
over a ``concurrent.futures.ProcessPoolExecutor`` and merges results back
**in submission order**, never completion order; callers submit cells
seed-major, so merged output is seed-ordered and byte-identical to what a
serial loop produces (every result, from any path, passes through the
same canonical-JSON normalisation — see :mod:`repro.runtime.spec`).

An optional :class:`~repro.runtime.cache.ResultCache` short-circuits
specs whose content hash already has a stored result, making a re-run of
a figure after an unrelated code change free.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any, Callable, Iterable, List, Mapping, Optional, Sequence)

from .cache import ResultCache
from .spec import RunSpec


def cell_error(fn: str, kind: str, message: str, attempts: int) -> dict:
    """The structured result of a cell whose worker died on every try.

    Shaped like any other canonical-JSON result so it merges, orders and
    serialises normally — callers test ``is_cell_error`` instead of
    catching exceptions mid-merge.  Never cached: the next run retries.
    """
    return {"cell_error": {"fn": fn, "kind": kind,
                           "message": message, "attempts": attempts}}


def is_cell_error(result: Any) -> bool:
    """True for a :func:`cell_error` placeholder result."""
    return isinstance(result, dict) and "cell_error" in result


#: Times a cell is resubmitted after its worker dies; one more death
#: resolves it to a ``worker_crash`` :func:`cell_error`.
CRASH_RETRIES = 1


@dataclass
class RuntimeStats:
    """Bookkeeping of one runtime's lifetime (inspectable in tests/CLI)."""

    executed: int = 0
    cache_hits: int = 0
    #: Pool workers that died hard (SIGKILL, OOM, ``os._exit``) — each is
    #: one ``BrokenProcessPool`` observed and one pool rebuild.
    worker_crashes: int = 0
    #: Corrupt cache entries encountered (mirrors ``ResultCache.corrupt``).
    cache_corrupt: int = 0


class Runtime:
    """Executes run specs serially (``jobs=1``) or across a process pool.

    ``jobs=None`` means one worker per CPU.  ``cache`` may be a
    :class:`ResultCache`, a directory path, or None (no caching).
    The serial path executes specs through exactly the same
    resolve-call-canonicalize pipeline as a pool worker, so switching
    ``jobs`` can never change results — only wall-clock time.

    A cell that raises propagates its exception, on either path.  A pool
    worker that *dies* instead (SIGKILL, the OOM killer, ``os._exit``)
    breaks the pool: the pool is rebuilt, cells that had finished keep
    their results, and the rest are resubmitted.  The cell being awaited
    is charged the crash; after ``CRASH_RETRIES`` resubmissions its next
    death resolves it to a ``worker_crash`` :func:`cell_error`.  A
    *durable* cell (:func:`repro.recovery.cell.durable_service_cell`)
    resumes from its own latest checkpoint when resubmitted, so a killed
    worker costs one epoch of progress, not the whole cell.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[object] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.stats = RuntimeStats()

    # ------------------------------------------------------------------
    def map(self, specs: Iterable[RunSpec]) -> List[Any]:
        """Run every spec; results come back in spec order.

        Cache hits are filled in without executing; the remainder runs
        serially or on the pool.  Submission order is preserved end to
        end, so for seed-major spec lists the merge is seed-ordered and
        deterministic regardless of worker scheduling.
        """
        specs = list(specs)
        results: List[Any] = [None] * len(specs)
        todo: List[int] = []
        keys: List[Optional[str]] = [None] * len(specs)
        corrupt_before = self.cache.corrupt if self.cache is not None else 0
        for i, spec in enumerate(specs):
            if self.cache is not None:
                keys[i] = spec.key()
                hit, value = self.cache.get(keys[i])
                if hit:
                    self.stats.cache_hits += 1
                    results[i] = value
                    continue
            todo.append(i)
        if self.cache is not None:
            self.stats.cache_corrupt += self.cache.corrupt - corrupt_before
        if self.jobs == 1 or len(todo) == 1:
            for i in todo:
                results[i] = specs[i].execute()
                self.stats.executed += 1
        else:
            self._run_pool(specs, todo, results)
        if self.cache is not None:
            for i in todo:
                if is_cell_error(results[i]):
                    continue  # a hit must never replay a failure
                self.cache.put(keys[i], specs[i].describe(), results[i])
        return results

    def _run_pool(self, specs: Sequence[RunSpec], todo: Sequence[int],
                  results: List[Any]) -> None:
        """Run ``todo`` on a pool, awaiting futures in submission order.

        A dead worker fails every unfinished future with
        ``BrokenProcessPool``; which cell it was running is not known,
        so the cell being awaited is charged.  Every broken wave charges
        one crash, so the loop always ends.
        """
        # ``concurrent.futures.process`` pulls in ``multiprocessing``
        # (about forty modules): imported here, serial runs never load it.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        crashes = dict.fromkeys(todo, 0)
        pending = list(todo)
        while pending:
            wave, pending = pending, []
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(wave))) as pool:
                futures = [pool.submit(specs[i].execute) for i in wave]
                for pos, (i, future) in enumerate(zip(wave, futures)):
                    try:
                        results[i] = future.result()
                    except BrokenProcessPool:
                        self.stats.worker_crashes += 1
                        crashes[i] += 1
                        if crashes[i] > CRASH_RETRIES:
                            results[i] = cell_error(
                                specs[i].fn, "worker_crash",
                                "worker process died", crashes[i])
                        else:
                            pending.append(i)
                        # Harvest what finished; resubmit the rest uncharged.
                        for j, other in zip(wave[pos + 1:], futures[pos + 1:]):
                            if other.done() and other.exception() is None:
                                results[j] = other.result()
                                self.stats.executed += 1
                            else:
                                pending.append(j)
                        break
                    except BaseException:
                        # Report now: cancel the cells no worker has
                        # taken and leave the taken ones to finish
                        # unawaited (leaving the block then joins nothing).
                        for other in futures:
                            other.cancel()
                        pool.shutdown(wait=False)
                        raise
                    self.stats.executed += 1


def sweep(runtime: Optional[Runtime], seed: int,
          seeds: Optional[Sequence[int]],
          specs_for: Callable[[int], List[RunSpec]],
          merge: Callable[[int, List[Any]], Any]) -> Any:
    """Every seed's ``specs_for(seed)`` through one :meth:`Runtime.map`
    (seed-major; ``runtime=None``: a fresh serial one), each seed's slice
    shaped by ``merge(seed, results)``; with ``seeds``, the whole is
    ``{"seeds": [...], "per_seed": [<single-seed shape>, ...]}``."""
    rt = runtime if runtime is not None else Runtime()
    seed_list = [seed] if seeds is None else list(seeds)
    cells = [specs_for(sd) for sd in seed_list]
    flat = iter(rt.map([spec for specs in cells for spec in specs]))
    per_seed = [merge(sd, list(islice(flat, len(specs))))
                for sd, specs in zip(seed_list, cells)]
    if seeds is None:
        return per_seed[0]
    return {"seeds": seed_list, "per_seed": per_seed}


@dataclass(frozen=True)
class Experiment:
    """A registry entry, run through :func:`sweep` when called:
    ``cells(seed, **params)`` lists one seed's runs and ``reduce(results,
    seed=seed, **params)`` shapes their results.  ``params`` are the knobs
    a caller may set, with their defaults; ``quick=True`` lays ``quick``
    on top (it may set knobs callers cannot, whose full scale is the
    cells' default).  Only a ``traces`` entry takes a ``trace_path``."""

    cells: Callable[..., List[RunSpec]]
    reduce: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)
    traces: bool = False

    def __call__(self, *, seed: int = 0, seeds: Optional[Sequence[int]] = None,
                 runtime: Optional[Runtime] = None, quick: bool = False,
                 trace_path: Optional[str] = None, **params: Any) -> Any:
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise TypeError(f"unexpected parameter(s): {', '.join(unknown)}")
        if trace_path is not None and not self.traces:
            raise TypeError("this experiment cannot trace")
        params = {**self.params, **params, **(self.quick if quick else {})}
        if self.traces:
            params["trace_path"] = trace_path
        return sweep(runtime, seed, seeds,
                     lambda sd: self.cells(sd, **params),
                     lambda sd, results: self.reduce(results, seed=sd,
                                                     **params))
