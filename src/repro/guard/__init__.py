"""Adversarial-tenant robustness: conformance monitoring, escalating
enforcement, and graceful vSwitch degradation (DESIGN.md §8).

AC/DC assumes guests obey the RWND the vSwitch advertises and that the
PACK/FACK feedback channel survives the path.  This package closes the
gap for tenants (or middleboxes) that don't:

* :class:`~repro.guard.monitor.ConformanceMonitor` — classifies flows
  CONFORMING → SUSPECT → VIOLATOR from windowed RWND-violation rates,
  ECN-bleaching and ACK-division anomalies, and detects feedback loss;
* :class:`~repro.guard.escalation.EscalationEngine` — graduated
  responses (slack-free policing → penalty RWND clamp → token-bucket
  quarantine) with hysteretic, seeded-deterministic decay;
* :class:`~repro.guard.watchdog.DatapathWatchdog` — sheds the
  lowest-priority flows to pass-through under flow-table pressure;
* :class:`~repro.guard.guard.Guard` — the facade an
  :class:`~repro.core.acdc.AcdcVswitch` drives.
"""

from .config import GuardConfig
from .escalation import EscalationEngine, TokenBucket
from .guard import Guard
from .monitor import (
    CONFORMING,
    SUSPECT,
    VIOLATOR,
    ConformanceMonitor,
    FlowConformance,
)
from .watchdog import DatapathWatchdog

__all__ = [
    "CONFORMING",
    "ConformanceMonitor",
    "DatapathWatchdog",
    "EscalationEngine",
    "FlowConformance",
    "Guard",
    "GuardConfig",
    "SUSPECT",
    "TokenBucket",
    "VIOLATOR",
]
