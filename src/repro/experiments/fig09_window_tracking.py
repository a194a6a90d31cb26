"""Fig. 9: AC/DC's computed RWND tracks a native DCTCP CWND.

The host stack runs DCTCP; AC/DC runs in *log-only* mode (it computes a
window on every ACK but never rewrites the packet — the paper logs RWND
to a file instead of enforcing it).  Both window series are sampled and
compared: instantaneously (Fig. 9a) and as a 100 ms moving average
(Fig. 9b).  Close agreement shows congestion control can be faithfully
recreated in the vSwitch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import AcdcConfig
from ..metrics import WindowLogger, moving_average
from ..net.packet import mss_for_mtu
from ..obs import ObsContext, format_flow, write_jsonl
from ..runtime import Experiment, RunSpec
from .common import ACDC, RunResult, Taps, Testbed
from .runners import cell, dumbbell_scenario
from .scenario import Scenario


def resample(series: Sequence[Tuple[float, float]],
             times: Sequence[float]) -> List[float]:
    """Last-value-carried-forward resampling onto ``times``."""
    out: List[float] = []
    idx = 0
    last = series[0][1] if series else 0.0
    for t in times:
        while idx < len(series) and series[idx][0] <= t:
            last = series[idx][1]
            idx += 1
        out.append(last)
    return out


def window_series(scenario: Scenario, obs: Optional[ObsContext] = None
                  ) -> Tuple[RunResult, list, list]:
    """The run, and its first flow's vSwitch RWND and guest CWND series
    in MSS; with ``obs``, each CWND sample is a guest ``flow.state``."""
    acdc_log = WindowLogger()      # the vSwitch's computed RWND
    host_log = WindowLogger()      # the guest's CWND (tcpprobe equivalent)
    window_probe = host_log.probe
    if obs is not None:
        def window_probe(conn, _probe=host_log.probe, _obs=obs):
            _probe(conn)
            _obs.bus.emit("flow.state", flow=conn.key(), component="guest",
                          state="cwnd", cwnd_bytes=int(conn.cwnd))
    r = Testbed(scenario, Taps(obs=obs, window_cb=acdc_log.acdc_callback,
                               window_probe=window_probe)).run()
    key, mss = r.flows[0].conn.key(), mss_for_mtu(scenario.mtu)
    return (r, [(t, w / mss) for t, w in acdc_log.samples[key]],
            [(t, w / mss) for t, w in host_log.samples[key]])


def _cell(scenario: dict, trace: bool) -> Dict[str, object]:
    """Runtime worker: both window series plus tracking-error stats."""
    sc = Scenario.from_json(scenario)
    obs = ObsContext() if trace else None
    r, rwnd_series, cwnd_series = window_series(sc, obs)
    # Tracking error on a common grid.
    n, duration = 200, sc.duration
    times = [duration * 0.1 + i * duration * 0.85 / n for i in range(n)]
    rwnd_pts = resample(rwnd_series, times)
    cwnd_pts = resample(cwnd_series, times)
    abs_err = [abs(a - b) for a, b in zip(rwnd_pts, cwnd_pts)]
    rel_err = [e / max(b, 1e-9) for e, b in zip(abs_err, cwnd_pts)]
    out: Dict[str, object] = {
        "rwnd_series_mss": rwnd_series,
        "cwnd_series_mss": cwnd_series,
        "rwnd_ma100ms": moving_average(rwnd_series, 0.1),
        "cwnd_ma100ms": moving_average(cwnd_series, 0.1),
        "mean_abs_err_mss": sum(abs_err) / len(abs_err),
        "mean_rel_err": sum(rel_err) / len(rel_err),
        "mean_rwnd_mss": sum(rwnd_pts) / len(rwnd_pts),
        "mean_cwnd_mss": sum(cwnd_pts) / len(cwnd_pts),
    }
    if obs is not None:
        out["telemetry"] = r.telemetry
        out["trace_events"] = len(obs.bus)
        out["trace_flow"] = format_flow(r.flows[0].conn.key())
        out["trace"] = obs.bus.records()
    return out


def cells(seed: int, duration: float, mtu: int, trace: bool,
          trace_path: Optional[str]) -> List[RunSpec]:
    """DCTCP guests under a log-only AC/DC.  ``trace`` (implied by
    ``trace_path``) puts both windows on a trace bus — the overlay the
    figure plots, replayable with ``python -m repro.obs timeline``."""
    return [cell(dumbbell_scenario(
        ACDC.with_host_cc("dctcp"), pairs=5, duration=duration, mtu=mtu,
        seed=seed, acdc_config=AcdcConfig(log_only=True), rtt_probe=False),
        f"{__name__}:_cell", trace=trace or trace_path is not None)]


def reduce(results: List[dict], trace_path: Optional[str],
           **_) -> Dict[str, object]:
    """The cell's result; a traced run's records go to ``trace_path``."""
    out = results[0]
    records = out.pop("trace", None)
    if trace_path is not None:
        out["trace_path"] = write_jsonl(records, trace_path)
    return out


run = Experiment(cells, reduce, {"duration": 1.0, "mtu": 1500, "trace": False},
                 quick={"duration": 0.25}, traces=True)
