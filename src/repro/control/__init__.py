"""Service mode with a live control plane (DESIGN.md §12).

``repro.control`` runs the AC/DC datapath as a long-lived *service*: an
open-loop arriving workload over virtual-time epochs, with a command
queue drained at epoch boundaries.  Commands hot-reload per-tenant
policy (RWND clamps, vSwitch CC selection) and guard thresholds on live
vSwitches — flows are migrated, never restarted — and the kill switch
returns every host to the service's boot configuration.

Public surface::

    from repro.control import Service, ServiceConfig, service_cell

Everything a service run produces is canonical JSON (see
``repro.runtime.spec``), so the same command schedule replayed serially,
through the process pool, or from the result cache is byte-identical —
the §10 determinism contract extended to mid-run mutation.
"""

from .commands import CommandError, parse_policy
from .service import (CohortSample, ControlPlane, Service, ServiceConfig,
                      service_cell)

__all__ = [
    "CohortSample",
    "CommandError",
    "ControlPlane",
    "Service",
    "ServiceConfig",
    "parse_policy",
    "service_cell",
]
