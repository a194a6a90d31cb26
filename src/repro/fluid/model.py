"""Fluid flow-class model: homogeneous background flows as one ODE state.

A *flow class* aggregates ``n_flows`` identical long-lived flows sharing
one bottleneck port: same RTT, same MSS, same congestion controller.
Because the flows are homogeneous their windows synchronize in the fluid
limit, so the class carries a single shared ``cwnd`` (starting at one
:data:`MSS`) and injects ``n_flows * cwnd / rtt`` bytes per second — the
standard fluid-model approximation (Alizadeh et al.'s DCTCP fluid
analysis uses the same N-identical-sources reduction).

The congestion feedback law runs once per RTT on the byte fractions the
coupling layer observed over that window: ``dctcp`` is the law of
:mod:`repro.tcp.cc.dctcp` (its gating table has the fluid column),
``reno`` halves on any lost or marked bytes; both otherwise add one MSS.
A ``dctcp`` class is ECN-capable, a ``reno`` class is not.

Everything here is plain arithmetic on floats — no RNG, no wall clock —
so the fluid tier is deterministic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..tcp.cc.dctcp import ALPHA_MAX, alpha_update, cut_factor

_CC_LAWS = ("dctcp", "reno")

#: Segment size of every fluid class: the additive-increase step, the
#: window floor and the initial window.  A cohort of hundreds dumping a
#: larger aggregate initial window into the queue in a single fluid step
#: is unphysical (real flows never start in lockstep) and parks the
#: transient occupancy far above the WRED ramp.
MSS = 1460


@dataclass(frozen=True)
class FluidFlowSpec:
    """Static description of one background flow class."""

    name: str
    n_flows: int
    rtt_s: float
    cc: str = "dctcp"

    def __post_init__(self) -> None:
        if self.n_flows <= 0:
            raise ValueError("a fluid class needs at least one flow")
        if not 0 < self.rtt_s < math.inf:
            raise ValueError(f"fluid rtt_s must be in (0, inf): {self.rtt_s!r}")
        if self.cc not in _CC_LAWS:
            raise ValueError(f"unknown fluid cc {self.cc!r}; one of {_CC_LAWS}")

    @property
    def ect(self) -> bool:
        """Which WRED action the class feels: ECN-capable (DCTCP)
        classes are marked above K, non-ECT classes are dropped along
        the WRED ramp (the Fig. 15/16 coexistence trap, cheap enough to
        run with hundreds of background flows)."""
        return self.cc == "dctcp"


class FluidClass:
    """Runtime state of one flow class at one port."""

    __slots__ = ("spec", "cwnd", "alpha", "backlog",
                 "rtt_clock", "win_sent", "win_marked", "win_lost",
                 "offered_bytes", "delivered_bytes",
                 "marked_bytes", "lost_bytes")

    def __init__(self, spec: FluidFlowSpec):
        self.spec = spec
        self.cwnd = float(MSS)
        self.alpha = 0.0
        #: Bytes of this class currently queued at the port (fluid overlay).
        self.backlog = 0.0
        # Per-RTT feedback window accumulators.
        self.rtt_clock = 0.0
        self.win_sent = 0.0
        self.win_marked = 0.0
        self.win_lost = 0.0
        # Lifetime counters (telemetry / benchmark accounting).
        self.offered_bytes = 0.0
        self.delivered_bytes = 0.0
        self.marked_bytes = 0.0
        self.lost_bytes = 0.0

    # ------------------------------------------------------------------
    def offered_rate_bps(self) -> float:
        """Current injection rate: ``n_flows * cwnd / rtt`` in bits/s."""
        spec = self.spec
        return spec.n_flows * self.cwnd * 8.0 / spec.rtt_s

    def advance_feedback(self, dt: float) -> None:
        """Advance the RTT clock; apply the cc law when a window closes.

        Called once per fluid step after the window accumulators have
        been fed.  The window closes on the first step boundary at or
        past one RTT — the discretization every fluid model makes.
        """
        self.rtt_clock += dt
        # Within a relative 1e-9: forty 25 us steps sum to just under
        # 1 ms, and must not wait for a forty-first.
        if self.rtt_clock < self.spec.rtt_s * (1.0 - 1e-9):
            return
        self.rtt_clock = 0.0
        sent, marked, lost = self.win_sent, self.win_marked, self.win_lost
        self.win_sent = self.win_marked = self.win_lost = 0.0
        spec = self.spec
        if spec.cc == "dctcp":
            self.alpha = alpha_update(self.alpha, marked, sent)
            if lost > 0.0:
                self.cwnd *= cut_factor(ALPHA_MAX)
            elif marked > 0.0:
                self.cwnd *= cut_factor(self.alpha)
            else:
                self.cwnd += MSS
        else:  # reno
            if lost > 0.0 or marked > 0.0:
                self.cwnd *= 0.5
            else:
                self.cwnd += MSS
        if self.cwnd < MSS:
            self.cwnd = float(MSS)

    def snapshot(self) -> dict:
        """Counters in metric-source shape (see repro.obs)."""
        return {
            "name": self.spec.name,
            "n_flows": self.spec.n_flows,
            "cc": self.spec.cc,
            "cwnd_bytes": self.cwnd,
            "alpha": self.alpha,
            "backlog_bytes": self.backlog,
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "marked_bytes": self.marked_bytes,
            "lost_bytes": self.lost_bytes,
        }
