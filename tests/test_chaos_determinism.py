"""Chaos runs are reproducible: one seed, one byte-identical summary.

The whole point of seeded fault injection is that a failure found at a
given (seed, intensity) can be replayed exactly.  These tests run the
chaos experiment twice at reduced scale and require the *entire* result
dictionaries — goodput floats included — to serialise identically.
"""

import json

from repro.experiments import adversarial, chaos
from repro.experiments.common import ACDC


def summary(seed):
    return chaos.run_point(ACDC, 0.05, seed=seed,
                           size_bytes=300_000, duration=0.15)


def test_same_seed_chaos_summary_is_byte_identical():
    a, b = summary(seed=7), summary(seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # And it is a non-trivial run: faults actually fired.
    assert sum(a["fault_counts"].values()) > 0


def test_different_seed_chaos_run_diverges():
    a, b = summary(seed=7), summary(seed=8)
    assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def test_same_seed_adversarial_guard_history_is_identical():
    def point(seed):
        return adversarial.run_point(0.25, True, seed=seed,
                                     n_senders=4, duration=0.08)
    a, b = point(0), point(0)
    assert a["event_signature"] == b["event_signature"]
    assert a["goodputs_bps"] == b["goodputs_bps"]
    assert a["guard_events"] == b["guard_events"]
    # The guard actually acted in this window, so the signature covers a
    # non-empty transition history.
    assert a["guard_events"].get("guard.escalate", 0) > 0
