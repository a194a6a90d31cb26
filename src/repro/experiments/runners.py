"""Reusable experiment runners (dumbbell / parking lot / incast).

Each runner is flow placement on a :class:`~repro.experiments.common.
Testbed` — which builds the topology, attaches the scheme's vSwitches
and taps, drives the workload for a virtual-time budget and returns a
:class:`RunResult` with the paper's metrics.  The per-figure modules are
thin wrappers over these.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import AcdcConfig, PolicyEngine
from ..metrics import ThroughputMeter
from ..net.topology import dumbbell, parking_lot, star
from .common import DATA_PORT, RunResult, Scheme, Testbed


def run_dumbbell(
    scheme: Scheme,
    pairs: int = 5,
    duration: float = 1.0,
    mtu: int = 9000,
    rate_bps: float = 10e9,
    seed: int = 0,
    host_ccs: Optional[Sequence[str]] = None,
    host_ecns: Optional[Sequence[bool]] = None,
    rtt_probe: bool = True,
    probe_interval: float = 0.001,
    probe_pipelined: bool = False,
    acdc_config: Optional[AcdcConfig] = None,
    policy: Optional[PolicyEngine] = None,
    window_cb=None,
    pacing_rate_bps: Optional[float] = None,
    max_cwnd: Optional[int] = None,
    start_times: Optional[Sequence[float]] = None,
    stop_times: Optional[Sequence[float]] = None,
    tput_meters: bool = False,
    window_probe=None,
    obs=None,
    int_tel=None,
) -> RunResult:
    """Long-lived flows s_i -> r_i on the Fig. 7a dumbbell.

    ``host_ccs`` overrides the scheme's guest stack per flow (the Fig. 1 /
    Fig. 17 heterogeneous-stack experiments).  ``start_times`` /
    ``stop_times`` stagger flows (the Fig. 14 convergence test), in which
    case per-flow :class:`ThroughputMeter` series are attached.
    """
    tb = Testbed(scheme, dumbbell, rate_bps=rate_bps, obs=obs,
                 int_tel=int_tel, acdc_config=acdc_config, policy=policy,
                 window_cb=window_cb, pairs=pairs, mtu=mtu, seed=seed)
    senders, receivers = tb.parts
    meters = []
    for i in range(pairs):
        opts = scheme.conn_opts()
        if host_ccs is not None:
            opts["cc"] = host_ccs[i % len(host_ccs)]
            opts["ecn"] = (host_ecns[i % len(host_ecns)]
                           if host_ecns is not None else opts["cc"] == "dctcp")
        if pacing_rate_bps is not None:
            opts["pacing_rate_bps"] = pacing_rate_bps
        if max_cwnd is not None:
            opts["max_cwnd"] = max_cwnd
        start = start_times[i] if start_times is not None else 0.0
        stop = stop_times[i] if stop_times is not None else None
        on_start = None
        if window_probe is not None:
            def on_start(flow, probe=window_probe):  # noqa: E306
                flow.conn.window_probe = probe
        flow = tb.bulk(senders[i], receivers[i], DATA_PORT, opts,
                       start_at=start, stop_at=stop, on_start=on_start)
        if tput_meters:
            meter = ThroughputMeter(tb.sim, lambda f=flow: f.bytes_acked,
                                    interval_s=duration / 100.0)
            tb.sim.schedule_at(start, meter.start)
            meters.append(meter)
    if rtt_probe:
        tb.probe(senders[0], receivers[0], probe_interval,
                 warmup_s=duration * 0.05, pipelined=probe_pipelined)
    result = tb.run(duration)
    result.meters = meters
    return result


def run_parking_lot(
    scheme: Scheme,
    n_senders: int = 5,
    duration: float = 1.0,
    mtu: int = 9000,
    rate_bps: float = 10e9,
    seed: int = 0,
    obs=None,
) -> RunResult:
    """The Fig. 7b multi-bottleneck topology, one long flow per sender."""
    tb = Testbed(scheme, parking_lot, rate_bps=rate_bps, obs=obs,
                 senders=n_senders, mtu=mtu, seed=seed)
    senders, receiver = tb.parts
    for i, sender in enumerate(senders):
        tb.bulk(sender, receiver, DATA_PORT + i)
    tb.probe(senders[0], receiver, 0.001, warmup_s=duration * 0.05)
    return tb.run(duration)


def run_incast(
    scheme: Scheme,
    n_senders: int,
    duration: float = 0.4,
    mtu: int = 9000,
    rate_bps: float = 10e9,
    seed: int = 0,
    acdc_config: Optional[AcdcConfig] = None,
    guest_dctcp_floor_mss: Optional[int] = None,
    obs=None,
    int_tel=None,
) -> RunResult:
    """N-to-1 incast of long-lived flows on a star (Fig. 18/19).

    ``guest_dctcp_floor_mss`` parameterises the Linux 2-packet CWND floor
    for the A4 ablation.
    """
    tb = Testbed(scheme, star, rate_bps=rate_bps, obs=obs, int_tel=int_tel,
                 acdc_config=acdc_config, n_hosts=n_senders + 1, mtu=mtu,
                 seed=seed)
    hosts, _switch = tb.parts
    receiver, senders = hosts[0], hosts[1:]
    opts = scheme.conn_opts()
    if guest_dctcp_floor_mss is not None and opts["cc"] == "dctcp":
        opts["cc_kwargs"] = {"min_cwnd_mss": guest_dctcp_floor_mss}
    storm_at = 0.01  # connections establish quietly, then all send
    for i, sender in enumerate(senders):
        # Small start jitter mimics real connection setup spread.
        tb.bulk(sender, receiver, DATA_PORT, opts,
                start_at=(i % 16) * 1e-4, send_at=storm_at)
    tb.probe(senders[0], receiver, 0.002, warmup_s=duration * 0.3)
    # Throughput/fairness over steady state only.
    return tb.run(duration, measure_from=duration * 0.3)
