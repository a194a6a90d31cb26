"""Background traffic description.

Hybrid-fidelity runs split their traffic between two tiers: foreground
flows that need packet-level fidelity (per-segment FCT, retransmission
behaviour, vSwitch enforcement) ride the packet datapath; long-lived
background whose only job is to pressure the bottleneck rides the fluid
tier (``repro.fluid``) at a tiny fraction of the event cost.

:class:`BackgroundFlowGroup` describes a homogeneous group of background
flows independent of tier.  Which tier carries a group is part of the
run's :class:`~repro.experiments.scenario.Scenario`: the hybrid
constructors (``repro.experiments.hybrid``) route every group fluid, or
every group packet-tier in ``"packet"`` mode (the fidelity-validation
configuration where everything is simulated packet-level for
comparison).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fluid.model import FluidFlowSpec


@dataclass(frozen=True)
class BackgroundFlowGroup:
    """A homogeneous group of long-lived background flows."""

    name: str
    n_flows: int
    rtt_s: float
    cc: str = "dctcp"

    @property
    def ect(self) -> bool:
        """DCTCP negotiates ECN; any other background is ECN-incapable,
        i.e. the non-ECT victims of the Fig. 15/16 WRED trap."""
        return self.cc == "dctcp"

    def to_fluid_spec(self) -> FluidFlowSpec:
        # Fluid classes start from one MSS (repro.fluid.model.MSS).
        return FluidFlowSpec(
            name=self.name,
            n_flows=self.n_flows,
            rtt_s=self.rtt_s,
            cc="dctcp" if self.cc == "dctcp" else "reno",
        )
