"""Fig. 14: convergence test — flows join and leave a shared bottleneck.

Following Alizadeh's and Judd's methodology, a new flow is added to the
bottleneck every epoch and then removed in reverse order; the per-flow
throughput timeseries shows whether the scheme converges to fair shares
quickly and smoothly.  CUBIC wobbles and overshoots (with a nonzero drop
rate); DCTCP and AC/DC converge cleanly with zero drops.

Scaling: the paper's epochs are 30 s on a 10 G link; shape converges well
within a second here, so epochs default to 0.5 s on a 1 G bottleneck
(documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..runtime import RunSpec, Runtime, sweep
from .common import ALL_SCHEMES, Scheme, Testbed
from .runners import dumbbell_scenario
from .scenario import Scenario


def _scenario(scheme: Scheme, epoch: float, seed: int,
              flows: int = 5) -> Scenario:
    """Flow *i* joins at ``i * epoch`` and leaves as long before the end,
    on a 1 G bottleneck at MTU 1500."""
    duration = 2 * flows * epoch
    return dumbbell_scenario(
        scheme, pairs=flows, duration=duration, mtu=1500, rate_bps=1e9,
        seed=seed, start_times=[i * epoch for i in range(flows)],
        stop_times=[duration - i * epoch for i in range(flows)],
        rtt_probe=False, tput_meters=True)


def _converge(scenario: Scenario, epoch: float) -> dict:
    """Run a staggered Scenario; per-flow series and share errors."""
    r = Testbed(scenario).run()
    flows, rate_bps = len(scenario.flows), scenario.rate_bps
    starts = [f.start for f in scenario.flows]
    stops = [f.stop for f in scenario.flows]
    series = [m.series for m in r.meters]
    # Fair-share error at each epoch midpoint: compare active flows'
    # instantaneous rates to the equal share.
    epochs: List[dict] = []
    for k in range(2 * flows - 1):
        t_mid = (k + 0.5) * epoch
        active = [i for i in range(flows)
                  if starts[i] <= t_mid and t_mid <= stops[i]]
        rates = []
        for i in active:
            pts = [v for (t, v) in series[i] if abs(t - t_mid) <= epoch / 2]
            rates.append(sum(pts) / len(pts) if pts else 0.0)
        share = rate_bps / max(len(active), 1)
        err = (max(abs(x - share) for x in rates) / share) if rates else 0.0
        epochs.append({"t_mid": t_mid, "active": len(active),
                       "rates_mbps": [x / 1e6 for x in rates],
                       "max_share_error": err})
    return {
        "series_bps": series,
        "epochs": epochs,
        "drop_rate": r.drop_rate,
        "timeouts": sum(f.conn.timeouts for f in r.flows if f.conn),
    }


def _cell(scenario: dict, epoch: float) -> dict:
    """Runtime worker: one (scheme, seed) cell from its Scenario."""
    return _converge(Scenario.from_json(scenario), epoch)


def run(epoch: float = 0.5, seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
        runtime: Optional[Runtime] = None) -> Dict[str, object]:
    """The convergence test for all three schemes.

    With ``seeds`` every (scheme, seed) cell fans through the experiment
    runtime and the result is :func:`repro.runtime.sweep`'s multi-seed
    shape.
    """
    return sweep(
        runtime, seed, seeds,
        lambda sd: [RunSpec(f"{__name__}:_cell", {
            "scenario": _scenario(s, epoch, sd).to_json(),
            "epoch": epoch}) for s in ALL_SCHEMES],
        lambda sd, cells: {s.name: cell
                           for s, cell in zip(ALL_SCHEMES, cells)})
