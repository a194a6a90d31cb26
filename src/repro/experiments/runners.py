"""The stock runs (dumbbell / parking lot / incast) as Scenario constructors.

Each ``*_scenario`` function turns the paper's knobs into a
:class:`~repro.experiments.scenario.Scenario`; its ``run_*`` twin runs
it with the given taps.  :func:`cell` makes a Scenario a runtime cell:
by default :func:`outcome`, whose result a reducer turns back into a
:class:`RunResult`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core import AcdcConfig, PolicyEngine
from ..runtime import RunSpec
from .common import (
    ALL_SCHEMES, DATA_PORT, RunResult, Scheme, Taps, Testbed)
from .scenario import Flow, Probe, Scenario


def dumbbell_scenario(
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
    pacing_rate_bps: Optional[float] = None,
    max_cwnd: Optional[int] = None,
    start_times: Optional[Sequence[float]] = None,
    stop_times: Optional[Sequence[float]] = None,
    tput_meters: bool = False,
) -> Scenario:
    """Long-lived flows s_i -> r_i on the Fig. 7a dumbbell.

    ``host_ccs`` overrides the scheme's guest stack per flow (the Fig. 1 /
    Fig. 17 heterogeneous-stack experiments).  ``start_times`` /
    ``stop_times`` stagger flows (the Fig. 14 convergence test);
    ``tput_meters`` attaches per-flow :class:`ThroughputMeter` series.
    """
    flows = []
    for i in range(pairs):
        cc, ecn = scheme.host_cc, scheme.host_ecn
        if host_ccs is not None:
            cc = host_ccs[i % len(host_ccs)]
            ecn = (host_ecns[i % len(host_ecns)] if host_ecns is not None
                   else cc == "dctcp")
        flows.append(Flow(
            f"s{i + 1}", f"r{i + 1}", cc=cc, ecn=ecn,
            start=start_times[i] if start_times is not None else 0.0,
            stop=stop_times[i] if stop_times is not None else None,
            pacing_rate_bps=pacing_rate_bps, max_cwnd=max_cwnd))
    probe = (Probe("s1", "r1", probe_interval, duration * 0.05,
                   probe_pipelined) if rtt_probe else None)
    rules = {} if policy is None else {"policy": policy.default,
                                       "rules": policy.rules}
    return Scenario(scheme, "dumbbell", pairs, duration, rate_bps, mtu, seed,
                    flows=tuple(flows), probe=probe, meters=tput_meters,
                    acdc=acdc_config, **rules)


def parking_lot_scenario(scheme: Scheme, n_senders: int = 5,
                         duration: float = 1.0, mtu: int = 9000,
                         rate_bps: float = 10e9, seed: int = 0) -> Scenario:
    """The Fig. 7b multi-bottleneck topology, one long flow per sender."""
    flows = tuple(Flow.of(scheme, f"s{i + 1}", "recv", DATA_PORT + i)
                  for i in range(n_senders))
    return Scenario(scheme, "parking_lot", n_senders, duration, rate_bps,
                    mtu, seed, flows=flows,
                    probe=Probe("s1", "recv", 0.001, duration * 0.05))


def incast_scenario(scheme: Scheme, n_senders: int, duration: float = 0.4,
                    mtu: int = 9000, rate_bps: float = 10e9, seed: int = 0,
                    acdc_config: Optional[AcdcConfig] = None,
                    guest_dctcp_floor_mss: Optional[int] = None) -> Scenario:
    """N-to-1 incast of long-lived flows on a star (Fig. 18/19): h1
    receives, throughput and fairness over the steady state only.

    ``guest_dctcp_floor_mss`` parameterises the Linux 2-packet CWND floor
    of DCTCP guests for the A4 ablation.
    """
    floor = guest_dctcp_floor_mss if scheme.host_cc == "dctcp" else None
    storm_at = 0.01  # connections establish quietly, then all send
    # Small start jitter mimics real connection setup spread.
    flows = tuple(Flow.of(scheme, f"h{i + 2}", "h1", start=(i % 16) * 1e-4,
                          send_at=storm_at, min_cwnd_mss=floor)
                  for i in range(n_senders))
    return Scenario(scheme, "star", n_senders + 1, duration, rate_bps, mtu,
                    seed, measure_from=duration * 0.3, flows=flows,
                    probe=Probe("h2", "h1", 0.002, duration * 0.3),
                    acdc=acdc_config)


def runner(constructor, *taps: str):
    """``run_*`` from a Scenario constructor: its arguments plus the named
    :class:`Taps` fields, by keyword."""
    def run(*args, **kwargs) -> RunResult:
        tapped = Taps(**{name: kwargs.pop(name, None) for name in taps})
        return Testbed(constructor(*args, **kwargs), tapped).run()
    run.__doc__ = (f"Run :func:`{constructor.__name__}`, tapped by "
                   f"{', '.join(taps)}.")
    return run


def outcome(scenario: dict) -> dict:
    """Runtime cell: run a Scenario, for ``RunResult(**outcome(...))``."""
    r = Testbed(Scenario.from_json(scenario)).run()
    return {"scheme": r.scheme, "duration": r.duration,
            "tputs_bps": r.tputs_bps, "rtt_samples": r.rtt_samples,
            "drop_rate": r.drop_rate}


def cell(scenario: Scenario, fn: str = f"{__name__}:outcome",
         **kwargs) -> RunSpec:
    """The cell calling ``fn(scenario=<its JSON>, **kwargs)``."""
    return RunSpec(fn, {"scenario": scenario.to_json(), **kwargs})


def by_label(labels: Sequence[str], row: Callable[[dict], dict] = dict):
    """The reducer of one cell per label: ``{label: row(result)}``."""
    return lambda results, **_: {label: row(result)
                                 for label, result in zip(labels, results)}


SCHEME_NAMES = tuple(s.name for s in ALL_SCHEMES)


def summary(result: dict) -> dict:
    """An :func:`outcome`'s Gb/s, fairness, RTT summary and drop rate."""
    r = RunResult(**result)
    return {"tput_gbps": [t / 1e9 for t in r.tputs_bps],
            "avg_tput_gbps": r.avg_tput_bps / 1e9, "fairness": r.fairness,
            "rtt": r.rtt_summary(), "drop_rate": r.drop_rate}


run_dumbbell = runner(dumbbell_scenario, "obs", "int_tel", "window_cb",
                      "window_probe")
run_parking_lot = runner(parking_lot_scenario, "obs")
run_incast = runner(incast_scenario, "obs", "int_tel")
