"""Per-flow differentiation primitives (§3.4).

Equation 1 of the paper generalises DCTCP's multiplicative decrease with a
priority knob ``beta`` in [0, 1] (:func:`repro.tcp.cc.dctcp.cut_factor`):
``beta = 1`` recovers DCTCP exactly, ``beta = 0`` backs off by the full
marked fraction (floored at one MSS to avoid starvation, per the paper).

The decrease is modulated (rather than the increase) because growing RWND
cannot force a VM whose own CWND is the limit to send faster.
"""

from __future__ import annotations

from ..tcp.cc.dctcp import cut_factor


def validate_beta(beta: float) -> float:
    """Check that ``beta`` is a legal priority value and return it."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"priority beta must be in [0, 1], got {beta!r}")
    return beta


def priority_decrease(wnd: float, alpha: float, beta: float) -> float:
    """Apply Equation 1 once to ``wnd`` and return the reduced window."""
    validate_beta(beta)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    return wnd * cut_factor(alpha, beta)


def rwnd_cap_for_rate(rate_bps: float, rtt_s: float) -> int:
    """Bandwidth-to-RWND conversion used for per-flow caps (§3.4, Fig. 6).

    The paper derives the clamp from the uncongested RTT (a lower bound),
    so the cap is ``rate * RTT_min`` bytes.
    """
    if rate_bps <= 0 or rtt_s <= 0:
        raise ValueError("rate and RTT must be positive")
    return max(1, int(rate_bps * rtt_s / 8.0))
