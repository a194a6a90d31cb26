"""Run specifications: the unit of work the experiment runtime executes.

A :class:`RunSpec` names a module-level callable by import path
(``"package.module:function"``) plus plain-JSON keyword arguments.  That
restriction is deliberate:

* the callable reference (not a closure) is what lets a process-pool
  worker re-resolve and execute the run in a fresh interpreter;
* JSON-only kwargs give every spec a *canonical* byte representation, so
  the same run always hashes to the same cache key, independent of dict
  insertion order, the machine, or the process that computes it.

Results are pushed through the same canonical JSON round-trip before they
leave the runtime (:func:`canonicalize`), so a result is byte-identical
whether it was computed serially in-process, computed in a pool worker
(pickled back), or loaded from the on-disk cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, Mapping

#: Bump when the spec encoding changes incompatibly; part of every key so
#: stale cache entries from an older scheme can never be returned.
SPEC_VERSION = 2


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to canonical JSON (sorted keys, no whitespace).

    Raises ``TypeError`` for anything that is not plain JSON data — specs
    must not smuggle in live objects, and results that cannot round-trip
    would silently change shape on a cache hit.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def canonicalize(value: Any) -> Any:
    """Normalise a result through a JSON round-trip.

    Tuples become lists, dict keys become strings, NaN/Infinity survive
    (Python's JSON dialect) — exactly what a cache hit would return.
    """
    return json.loads(canonical_json(value))


def resolve(ref: str) -> Callable[..., Any]:
    """Import the callable named by ``"package.module:qualname"``."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed callable reference {ref!r}; "
                         f"expected 'package.module:function'")
    obj: Any = import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref!r} resolved to non-callable {obj!r}")
    return obj


@dataclass(frozen=True)
class RunSpec:
    """One independent (callable, kwargs) run, e.g. a (scheme, seed) cell."""

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> Dict[str, Any]:
        """The hashed identity of this spec (also stored beside results)."""
        return {"v": SPEC_VERSION, "fn": self.fn, "kwargs": dict(self.kwargs)}

    def key(self) -> str:
        """Content hash of the run spec — the result-cache key.

        Only the spec is hashed (not the code), so re-running a figure
        after an unrelated code change is free; invalidate by bumping the
        seed, the kwargs, or wiping the cache directory.
        """
        blob = canonical_json(self.describe()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def execute(self) -> Any:
        """Resolve and run the callable; returns the canonicalized result."""
        return canonicalize(resolve(self.fn)(**dict(self.kwargs)))
