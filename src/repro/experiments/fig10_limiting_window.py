"""Fig. 10: with a CUBIC host, AC/DC's RWND is the limiting window.

AC/DC hides ECN feedback from the VM, so the CUBIC stack sees neither
loss nor marks and grows its CWND; AC/DC's enforced RWND therefore sits
below the host CWND essentially all the time and is what actually paces
the flow.  This experiment logs both series (enforcement active) and
reports the fraction of samples where RWND < CWND.
"""

from __future__ import annotations

from typing import Dict, List

from ..runtime import Experiment, RunSpec
from .common import ACDC
from .fig09_window_tracking import resample, window_series
from .runners import cell, dumbbell_scenario
from .scenario import Scenario


def _cell(scenario: dict) -> Dict[str, object]:
    """Runtime worker: window series plus the fraction of time RWND is
    the limiter."""
    sc = Scenario.from_json(scenario)
    _r, rwnd_series, cwnd_series = window_series(sc)
    n, duration = 400, sc.duration
    times = [duration * 0.05 + i * duration * 0.9 / n for i in range(n)]
    rwnd_pts = resample(rwnd_series, times)
    cwnd_pts = resample(cwnd_series, times)
    limiting = sum(1 for a, b in zip(rwnd_pts, cwnd_pts) if a < b)
    return {
        "rwnd_series_mss": rwnd_series,
        "cwnd_series_mss": cwnd_series,
        "fraction_rwnd_limiting": limiting / n,
        "mean_rwnd_mss": sum(rwnd_pts) / n,
        "mean_cwnd_mss": sum(cwnd_pts) / n,
    }


def cells(seed: int, duration: float, mtu: int) -> List[RunSpec]:
    return [cell(dumbbell_scenario(ACDC, pairs=5, duration=duration, mtu=mtu,
                                   seed=seed, rtt_probe=False),
                 f"{__name__}:_cell")]


run = Experiment(cells, lambda results, **_: results[0],
                 {"duration": 1.0, "mtu": 1500})
