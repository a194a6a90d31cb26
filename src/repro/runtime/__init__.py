"""Parallel experiment runtime: process-pool fan-out + on-disk result cache.

Public surface::

    from repro.runtime import Runtime, RunSpec

    rt = Runtime(jobs=8, cache=".repro-cache")
    results = rt.map([RunSpec("repro.experiments.chaos:_cell",
                              {"scheme": "acdc", "intensity": 0.01,
                               "seed": s, "size_bytes": 4_000_000,
                               "duration": 0.5})
                      for s in range(10)])

``Runtime(jobs, cache)`` is the whole configuration.  A cell that raises
propagates; a pool worker that dies has its cell resubmitted once (a
durable cell resumes from its checkpoint).  See DESIGN.md §10 for the
architecture and the cache-key scheme, §13 for crash resume.
"""

from .cache import ResultCache
from .pool import (Experiment, Runtime, RuntimeStats, cell_error,
                   is_cell_error, sweep)
from .spec import SPEC_VERSION, RunSpec, canonical_json, canonicalize, resolve

__all__ = [
    "Experiment",
    "ResultCache",
    "RunSpec",
    "Runtime",
    "RuntimeStats",
    "SPEC_VERSION",
    "canonical_json",
    "canonicalize",
    "cell_error",
    "is_cell_error",
    "resolve",
    "sweep",
]
