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
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Optional,
    Sequence)

from .cache import ResultCache
from .spec import RunSpec

# ``concurrent.futures.process`` pulls in ``multiprocessing`` (about forty
# modules): it is imported where a pool of more than one worker is built
# and where its exceptions are caught, so serial runs never load it.
if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor


def _execute(fn: str, kwargs: dict) -> Any:
    """Pool-worker entry point (module-level: must be picklable)."""
    return RunSpec(fn, kwargs).execute()


def cell_error(fn: str, kind: str, message: str, attempts: int) -> dict:
    """The structured result of a quarantined (poisoned) cell.

    Shaped like any other canonical-JSON result so it merges, orders and
    serialises normally — callers test ``is_cell_error`` instead of
    catching exceptions mid-merge.  Never cached: the next run retries.
    """
    return {"cell_error": {"fn": fn, "kind": kind,
                           "message": message, "attempts": attempts}}


def is_cell_error(result: Any) -> bool:
    """True for a :func:`cell_error` placeholder result."""
    return isinstance(result, dict) and "cell_error" in result


@dataclass
class RuntimeStats:
    """Bookkeeping of one runtime's lifetime (inspectable in tests/CLI)."""

    executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    batches: List[int] = field(default_factory=list)
    #: Guarded-mode accounting (``cell_timeout_s`` / ``quarantine``).
    retries_used: int = 0
    quarantined: int = 0
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

    **Guarded mode** (``cell_timeout_s`` set and/or ``quarantine=True``)
    adds poisoned-cell containment: a cell that times out, raises, or
    kills its worker is retried once (``retries``), and on repeated
    failure resolves to a structured :func:`cell_error` result instead of
    wedging the pool or aborting the merge.  A timeout tears the stuck
    worker processes down and rebuilds the pool; innocent cells that were
    in flight are re-run without consuming their retry budget.  Timeouts
    need process isolation, so the serial path enforces only the
    exception/quarantine half of the contract.  Error results are never
    cached.  Default (unguarded) behaviour is unchanged: any failure
    propagates immediately, as before.

    Worker crashes (the worker process *dies* rather than raising —
    SIGKILL, the OOM killer, ``os._exit``) have their own retry budget,
    ``crash_retries`` (defaults to ``retries``): the pool is rebuilt,
    the victim cell re-submitted, and ``stats.worker_crashes``
    incremented.  A crash is charged separately from an exception
    because re-running it is usually cheap: a *durable* cell
    (:func:`repro.recovery.cell.durable_service_cell`) resumes from its
    own latest checkpoint on the retry, so a killed worker costs one
    epoch of progress, not the whole cell.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[object] = None,
                 cell_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 quarantine: bool = False,
                 crash_retries: Optional[int] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if crash_retries is None:
            crash_retries = retries
        if crash_retries < 0:
            raise ValueError("crash_retries must be >= 0")
        self.crash_retries = crash_retries
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.cell_timeout_s = cell_timeout_s
        self.retries = retries
        self.quarantine = quarantine or cell_timeout_s is not None
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
        self.stats.batches.append(len(todo))
        if not todo:
            return results
        if self.jobs == 1 or len(todo) == 1:
            if self.quarantine:
                self._run_serial_guarded(specs, todo, results)
            else:
                for i in todo:
                    results[i] = specs[i].execute()
                    self.stats.executed += 1
        else:
            workers = min(self.jobs, len(todo))
            if self.quarantine:
                self._run_pool_guarded(specs, todo, results, workers)
            else:
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(_execute, specs[i].fn,
                                    dict(specs[i].kwargs))
                        for i in todo
                    ]
                    for i, future in zip(todo, futures):
                        results[i] = future.result()
                        self.stats.executed += 1
        if self.cache is not None:
            for i in todo:
                if is_cell_error(results[i]):
                    continue  # a hit must never replay a failure
                self.cache.put(keys[i], specs[i].describe(), results[i])
                self.stats.cache_stores += 1
        return results

    # ------------------------------------------------------------------
    # Guarded execution (timeout / retry / quarantine)
    # ------------------------------------------------------------------
    def _charge(self, attempts: Dict[int, int], i: int, spec: RunSpec,
                kind: str, message: str, results: List[Any],
                pending: List[int]) -> None:
        """Consume one attempt of cell ``i``; requeue or quarantine."""
        attempts[i] += 1
        if attempts[i] <= self.retries:
            self.stats.retries_used += 1
            pending.append(i)
        else:
            results[i] = cell_error(spec.fn, kind, message, attempts[i])
            self.stats.quarantined += 1

    def _charge_crash(self, crashes: Dict[int, int], i: int, spec: RunSpec,
                      results: List[Any], pending: List[int]) -> None:
        """Consume one *crash* attempt of cell ``i`` (its own budget).

        Crashes are charged separately from exceptions/timeouts: a cell
        whose worker was SIGKILLed is not poisoned, and if it is durable
        the retry resumes from its checkpoint rather than re-running.
        """
        self.stats.worker_crashes += 1
        crashes[i] += 1
        if crashes[i] <= self.crash_retries:
            self.stats.retries_used += 1
            pending.append(i)
        else:
            results[i] = cell_error(spec.fn, "worker_crash",
                                    "worker process died", crashes[i])
            self.stats.quarantined += 1

    def _run_serial_guarded(self, specs: Sequence[RunSpec],
                            todo: Sequence[int],
                            results: List[Any]) -> None:
        """In-process guarded path: exceptions contained, no timeouts
        (a hung cell cannot be interrupted without a worker process)."""
        attempts: Dict[int, int] = {i: 0 for i in todo}
        pending: List[int] = list(todo)
        while pending:
            i = pending.pop(0)
            try:
                results[i] = specs[i].execute()
                self.stats.executed += 1
            except Exception as exc:
                self._charge(attempts, i, specs[i], "exception",
                             f"{type(exc).__name__}: {exc}", results, pending)

    def _run_pool_guarded(self, specs: Sequence[RunSpec],
                          todo: Sequence[int], results: List[Any],
                          workers: int) -> None:
        """Pool path with containment.

        Cells are submitted in waves; completions are harvested in
        submission order with a per-cell ``result(timeout=...)``.  A
        timeout means the cell's worker is stuck, so the pool (the only
        interruption boundary ``concurrent.futures`` offers) is torn
        down: already-finished futures are harvested first, the stuck
        cell is charged an attempt, and unfinished innocents return to
        pending uncharged.  A worker that dies hard (``os._exit``,
        signal) breaks the whole pool; the cell being awaited is charged
        — attribution is imprecise for hard crashes, but every wave
        charges at least one attempt, so the loop always terminates.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as _FutureTimeout
        from concurrent.futures.process import BrokenProcessPool
        attempts: Dict[int, int] = {i: 0 for i in todo}
        crashes: Dict[int, int] = {i: 0 for i in todo}
        pending: List[int] = list(todo)
        while pending:
            wave = list(pending)
            pending = []
            pool = ProcessPoolExecutor(max_workers=min(workers, len(wave)))
            futures = [
                pool.submit(_execute, specs[i].fn, dict(specs[i].kwargs))
                for i in wave
            ]
            broken = False
            for pos, (i, future) in enumerate(zip(wave, futures)):
                try:
                    results[i] = future.result(timeout=self.cell_timeout_s)
                    self.stats.executed += 1
                except _FutureTimeout:
                    # Drain finished neighbours, then kill the pool: the
                    # stuck cell is charged, unfinished innocents requeue
                    # without consuming their retry budget.
                    for j, other in zip(wave[pos + 1:], futures[pos + 1:]):
                        self._harvest_or_requeue(specs, attempts, j, other,
                                                 results, pending,
                                                 charge_failures=True)
                    self._kill_pool(pool)
                    self._charge(attempts, i, specs[i], "timeout",
                                 f"cell exceeded {self.cell_timeout_s}s",
                                 results, pending)
                    broken = True
                    break
                except BrokenProcessPool:
                    self._charge_crash(crashes, i, specs[i], results, pending)
                    for j, other in zip(wave[pos + 1:], futures[pos + 1:]):
                        self._harvest_or_requeue(specs, attempts, j, other,
                                                 results, pending,
                                                 charge_failures=True)
                    self._kill_pool(pool)
                    broken = True
                    break
                except Exception as exc:
                    self._charge(attempts, i, specs[i], "exception",
                                 f"{type(exc).__name__}: {exc}",
                                 results, pending)
            if not broken:
                pool.shutdown(wait=True)

    def _harvest_or_requeue(self, specs: Sequence[RunSpec],
                            attempts: Dict[int, int], i: int, future,
                            results: List[Any], pending: List[int],
                            charge_failures: bool = False) -> None:
        """Collect a finished future; requeue an unfinished one uncharged."""
        from concurrent.futures.process import BrokenProcessPool
        if future.done():
            try:
                results[i] = future.result(timeout=0)
                self.stats.executed += 1
                return
            except BrokenProcessPool:
                pass  # never started/finished: innocent, requeue below
            except Exception as exc:
                if charge_failures:
                    self._charge(attempts, i, specs[i], "exception",
                                 f"{type(exc).__name__}: {exc}",
                                 results, pending)
                    return
        pending.append(i)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate worker processes and discard the executor.

        ``shutdown(wait=True)`` would block behind a stuck worker — the
        exact wedge guarded mode exists to prevent — so the workers are
        terminated first and the shutdown is non-blocking.
        """
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def run(self, spec: RunSpec) -> Any:
        """Convenience: execute a single spec (cache-aware)."""
        return self.map([spec])[0]

    def telemetry(self) -> dict:
        """Pool/cache stats in metric-source shape (see repro.obs)."""
        stats = self.stats
        seen = stats.executed + stats.cache_hits
        return {
            "jobs": self.jobs,
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "cache_stores": stats.cache_stores,
            "batches": len(stats.batches),
            "hit_ratio": (stats.cache_hits / seen) if seen else 0.0,
            "retries_used": stats.retries_used,
            "quarantined": stats.quarantined,
            "worker_crashes": stats.worker_crashes,
            "cache_corrupt": stats.cache_corrupt,
        }


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
