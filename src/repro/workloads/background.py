"""Background traffic description.

Hybrid-fidelity runs split their traffic between two tiers: foreground
flows that need packet-level fidelity (per-segment FCT, retransmission
behaviour, vSwitch enforcement) ride the packet datapath; long-lived
background whose only job is to pressure the bottleneck rides the fluid
tier (``repro.fluid``) at a tiny fraction of the event cost.

:class:`BackgroundFlowGroup` describes a homogeneous group of background
flows independent of tier.  Which tier carries a group is part of the
run's :class:`~repro.experiments.scenario.Scenario`: the hybrid
constructors (``repro.experiments.hybrid``) route it — packet-tier if
the group says so (``packet_tier=True``) or the run is forced to
``"packet"`` mode (the fidelity-validation configuration where
everything is simulated packet-level for comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fluid.model import FluidFlowSpec


@dataclass(frozen=True)
class BackgroundFlowGroup:
    """A homogeneous group of long-lived background flows.

    ``ect`` defaults from the congestion controller (DCTCP negotiates
    ECN; Reno-style background is ECN-incapable, i.e. the non-ECT
    victims of the Fig. 15/16 WRED trap).  ``packet_tier`` pins the
    group to the packet datapath regardless of router mode — for small
    groups whose per-flow behaviour matters.
    """

    name: str
    n_flows: int
    rtt_s: float
    mss: int = 1460
    cc: str = "dctcp"
    ect: Optional[bool] = None
    packet_tier: bool = False

    @property
    def resolved_ect(self) -> bool:
        return self.cc == "dctcp" if self.ect is None else self.ect

    def to_fluid_spec(self) -> FluidFlowSpec:
        # Fluid classes start from one MSS: a cohort of hundreds dumping
        # its aggregate initial window into the queue in a single fluid
        # step is unphysical (real flows never start in lockstep) and
        # parks the transient occupancy far above the WRED ramp.
        return FluidFlowSpec(
            name=self.name,
            n_flows=self.n_flows,
            rtt_s=self.rtt_s,
            mss=self.mss,
            cc="dctcp" if self.cc == "dctcp" else "reno",
            ect=self.resolved_ect,
            init_cwnd_bytes=self.mss,
        )
