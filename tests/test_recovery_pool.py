"""Worker-crash resilience: a SIGKILLed pool worker costs one epoch.

The pool runtime detects a dead worker (``BrokenProcessPool``),
rebuilds the pool and re-submits the victim cell; a *durable* cell
(:func:`repro.recovery.cell.durable_service_cell`) then resumes from its
own latest checkpoint.  The final merged results must be byte-identical
to a run nobody killed.
"""

import os
import signal

from repro.runtime import Runtime, RunSpec, is_cell_error
from repro.runtime.spec import canonical_json

CELL = "repro.recovery.cell:durable_service_cell"
#: The plain service run a durable cell must equal.
PLAIN = "repro.control.service:service_cell"

CONFIG = dict(n_hosts=4, epoch_s=0.01, arrival_rate_hz=400.0,
              msg_sizes=[16_384, 65_536], msg_weights=[3, 1],
              peers=2, seed=5)
SCHEDULE = [{"epoch": 1, "op": "set_policy", "hosts": ["h1"],
             "policy": {"max_rwnd": 2920}}]


# Module-level workers: run specs reference them as f"{__name__}:name".
def kill_self(x):
    """A worker that dies hard, unconditionally (crash-budget tests)."""
    os.kill(os.getpid(), signal.SIGKILL)


def kill_once(x, sentinel):
    """Dies hard on its first attempt only: the sentinel file outlives
    the worker, unlike an in-memory attempt counter."""
    try:
        with open(sentinel, "x", encoding="utf-8"):
            pass
    except FileExistsError:
        return x * 10
    os.kill(os.getpid(), signal.SIGKILL)


def double(x):
    return x * 2


KILL_SELF = f"{__name__}:kill_self"
KILL_ONCE = f"{__name__}:kill_once"
DOUBLE = f"{__name__}:double"


def map_with_padding(rt, spec):
    """Run ``spec`` plus a benign neighbour so the runtime takes the pool
    path — a single-cell batch executes serially, in *this* process, and
    a kill cell would take pytest down with it."""
    results = rt.map([spec, RunSpec(DOUBLE, {"x": 4})])
    assert results[1] == 8
    return results[0]


def cell_kwargs(seed, **extra):
    return dict(config={**CONFIG, "seed": seed}, schedule=SCHEDULE,
                epochs=3, **extra)


def test_killed_worker_cell_resumes_and_matches_baseline(tmp_path):
    baseline = Runtime(jobs=2).map([
        RunSpec(PLAIN, cell_kwargs(5)),
        RunSpec(PLAIN, cell_kwargs(6)),
    ])

    rt = Runtime(jobs=2)
    results = rt.map([
        RunSpec(CELL, cell_kwargs(5, recovery_dir=str(tmp_path),
                                  kill={"at": 0.017})),
        RunSpec(CELL, cell_kwargs(6, recovery_dir=str(tmp_path))),
    ])
    assert rt.stats.worker_crashes == 1
    assert not any(is_cell_error(r) for r in results)
    assert [canonical_json(r) for r in results] == \
        [canonical_json(r) for r in baseline]


def test_crash_budget_exhaustion_quarantines(tmp_path):
    rt = Runtime(jobs=2)
    result = map_with_padding(rt, RunSpec(KILL_SELF, {"x": 1}))
    assert is_cell_error(result)
    assert result["cell_error"]["kind"] == "worker_crash"
    assert result["cell_error"]["attempts"] == 2  # initial + 1 crash retry
    assert rt.stats.worker_crashes == 2


def test_worker_crashes_surface_in_telemetry(tmp_path):
    """A death the resubmission survives is still counted."""
    rt = Runtime(jobs=2)
    sentinel = str(tmp_path / "killed")
    assert map_with_padding(
        rt, RunSpec(KILL_ONCE, {"x": 1, "sentinel": sentinel})) == 10
    assert rt.stats.worker_crashes == 1
