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

from typing import List

from ..runtime import Experiment, RunSpec
from .common import ALL_SCHEMES, Scheme, Testbed
from .runners import SCHEME_NAMES, by_label, dumbbell_scenario
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


def _cell(scenario: dict, epoch: float) -> dict:
    """Runtime worker: one scheme's per-flow series and share errors."""
    sc = Scenario.from_json(scenario)
    r = Testbed(sc).run()
    flows, rate_bps = len(sc.flows), sc.rate_bps
    starts = [f.start for f in sc.flows]
    stops = [f.stop for f in sc.flows]
    series = [m.series for m in r.meters]
    # Fair-share error at each epoch midpoint: compare active flows'
    # instantaneous rates to the equal share.  An epoch's window is
    # half-open, (t_mid - epoch/2, t_mid + epoch/2], so a meter sample on
    # an epoch boundary belongs to exactly one epoch: the one it closes.
    # Meters tick on the grid of their interval, which divides the
    # epoch; the window is compared in whole ticks, so a boundary is
    # never decided by the last bit of a float.
    interval = r.meters[0].interval
    per_epoch = round(epoch / interval)
    epochs: List[dict] = []
    for k in range(2 * flows - 1):
        t_mid = (k + 0.5) * epoch
        lo, hi = k * per_epoch, (k + 1) * per_epoch
        active = [i for i in range(flows)
                  if starts[i] <= t_mid and t_mid <= stops[i]]
        rates = []
        for i in active:
            pts = [v for (t, v) in series[i]
                   if lo < round(t / interval) <= hi]
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


def cells(seed: int, epoch: float) -> List[RunSpec]:
    return [RunSpec(f"{__name__}:_cell", {
        "scenario": _scenario(s, epoch, seed).to_json(), "epoch": epoch})
        for s in ALL_SCHEMES]


#: The convergence test for all three schemes.
run = Experiment(cells, by_label(SCHEME_NAMES), {"epoch": 0.5})
