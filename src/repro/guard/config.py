"""The thresholds of the misbehavior-detection and degradation subsystem
that a caller varies.

Everything else is a named constant beside the one function that reads
it (DESIGN.md §8), tuned for datacenter-scale flows (jumbo-frame MSS,
sub-ms RTTs): a conformance window of a few dozen data packets reacts
within a handful of RTTs, and the decay ladder takes a multiple of that
to step back down, so a flapping cheater cannot oscillate its way past
the enforcement (hysteresis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Violation rate that moves straight to VIOLATOR (read by
#: :meth:`repro.guard.monitor.ConformanceMonitor.close_window`).
VIOLATOR_VIOLATION_RATE = 0.5


@dataclass
class GuardConfig:
    """Knobs of :class:`repro.guard.Guard` (see DESIGN.md §8)."""

    #: Master seed for the guard's deterministic decay jitter streams.
    seed: int = 0
    #: Base of the decay timer armed at each escalation step.
    decay_base_s: float = 0.05
    #: Violation rate that moves CONFORMING -> SUSPECT.
    suspect_violation_rate: float = 0.25
    #: Consecutive clean conformance windows required before stepping a
    #: flow's escalation level back down (hysteresis).
    clean_windows: int = 3
    #: Flow-table budget of the datapath watchdog; None = no watchdog.
    max_flow_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.suspect_violation_rate <= VIOLATOR_VIOLATION_RATE:
            raise ValueError(f"suspect_violation_rate must be in "
                             f"(0, {VIOLATOR_VIOLATION_RATE}]")
        if not 0.0 < self.decay_base_s < float("inf"):  # also refuses NaN
            raise ValueError("decay_base_s must be finite and positive")
        if type(self.clean_windows) is not int or self.clean_windows < 1:
            raise ValueError("clean_windows must be an int >= 1")
