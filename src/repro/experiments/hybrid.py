"""Hybrid-fidelity scenarios: packet foreground over fluid background.

The paper's evaluation keeps its microbenchmarks small (a handful of
long-lived flows) because packet-level simulation pays several calendar
events per packet per hop.  Production traces are mostly the opposite
shape: a few latency-sensitive foreground flows sharing bottlenecks with
*hundreds* of long-lived background flows whose individual packets are
irrelevant — only their aggregate buffer pressure and marking feedback
matter.  These runners carry the foreground on the packet datapath and
the background on the fluid tier (``repro.fluid``), coupled at the
bottleneck port.

Tier routing is per flow group (:class:`~repro.workloads.background.
TierRouter`): ``tier_mode="packet"`` simulates everything packet-level
— the validation configuration the fidelity tests compare against —
and ``inert_coupling=True`` installs the coupling hooks with no fluid
classes, which must leave the run byte-identical to not installing
them at all (the zero-background identity contract, DESIGN.md §15).

Everything reported here is virtual-domain (throughputs, marks, byte
counters); wall-clock speedup lives in ``benchmarks/test_bench_hybrid``
where host timing belongs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..net.topology import dumbbell, star
from ..workloads.background import BackgroundFlowGroup, TierRouter
from .common import DATA_PORT, DCTCP, RunResult, Scheme, Testbed

#: Fluid timestep for the stock scenarios: 0.1 ms, ten steps per the
#: default 1 ms background RTT.
HYBRID_DT_S = 1e-4

#: Default background mix: a large DCTCP cohort plus a small non-ECT
#: Reno cohort — the Fig. 15/16 ECN-coexistence trap at a population the
#: packet tier could not afford.
DEFAULT_BACKGROUND = (
    BackgroundFlowGroup("bg-dctcp", n_flows=48, rtt_s=1e-3, cc="dctcp"),
    BackgroundFlowGroup("bg-reno", n_flows=16, rtt_s=1e-3, cc="reno"),
)


def run_hybrid_dumbbell(
    scheme: Scheme = DCTCP,
    fg_pairs: int = 1,
    background: Sequence[BackgroundFlowGroup] = (),
    duration: float = 1.0,
    mtu: int = 1500,
    rate_bps: float = 10e9,
    seed: int = 0,
    dt: float = HYBRID_DT_S,
    bg_start_at: float = 0.005,
    tier_mode: str = "auto",
    inert_coupling: bool = False,
    rtt_probe: bool = False,
    probe_interval: float = 0.001,
    fg_conn_opts: Optional[dict] = None,
    obs=None,
) -> RunResult:
    """Foreground pairs on the Fig. 7a dumbbell, background on the
    forward bottleneck port (sw-left -> sw-right).

    Packet-tier background groups expand into real sender/receiver
    pairs; fluid groups become flow classes at the bottleneck.
    """
    router = TierRouter(tier_mode)
    pkt_groups, fluid_specs = router.route(background)
    pkt_flows = [group for group in pkt_groups for _ in range(group.n_flows)]
    tb = Testbed(scheme, dumbbell, rate_bps=rate_bps, obs=obs,
                 pairs=fg_pairs + len(pkt_flows), mtu=mtu, seed=seed)
    senders, receivers = tb.parts
    for i in range(fg_pairs):
        opts = scheme.conn_opts()
        if fg_conn_opts:
            opts.update(fg_conn_opts)
        tb.bulk(senders[i], receivers[i], DATA_PORT, opts)
    for j, group in enumerate(pkt_flows):
        i = fg_pairs + j
        tb.bulk(senders[i], receivers[i], DATA_PORT,
                {"cc": group.cc, "ecn": group.resolved_ect})
    if rtt_probe:
        tb.probe(senders[0], receivers[0], probe_interval,
                 warmup_s=duration * 0.05)
    if fluid_specs or inert_coupling:
        # Port 0 of sw-left is the inter-switch wire (dumbbell() links
        # the switches before any host), i.e. the forward bottleneck.
        tb.couple_fluid(tb.topology.switches["sw-left"], 0, fluid_specs,
                        dt, bg_start_at)
    return tb.run(duration)


def run_hybrid_incast(
    scheme: Scheme = DCTCP,
    n_senders: int = 8,
    background: Sequence[BackgroundFlowGroup] = (),
    duration: float = 0.4,
    mtu: int = 1500,
    rate_bps: float = 10e9,
    seed: int = 0,
    dt: float = HYBRID_DT_S,
    bg_start_at: float = 0.005,
    tier_mode: str = "auto",
    inert_coupling: bool = False,
    obs=None,
) -> RunResult:
    """N-to-1 packet incast (Fig. 18 shape) with fluid background
    pressing the same receiver port.

    The background shares the incast victims' bottleneck — the
    receiver's switch port — so the storm arrives at a buffer already
    under pressure, which is how incast happens in production.
    """
    router = TierRouter(tier_mode)
    pkt_groups, fluid_specs = router.route(background)
    pkt_flows = [group for group in pkt_groups for _ in range(group.n_flows)]
    tb = Testbed(scheme, star, rate_bps=rate_bps, obs=obs,
                 n_hosts=n_senders + len(pkt_flows) + 1, mtu=mtu, seed=seed)
    hosts, switch = tb.parts
    receiver, senders = hosts[0], hosts[1:]
    storm_at = 0.01
    for i in range(n_senders):
        tb.bulk(senders[i], receiver, DATA_PORT,
                start_at=(i % 16) * 1e-4, send_at=storm_at)
    for j, group in enumerate(pkt_flows):
        tb.bulk(senders[n_senders + j], receiver, DATA_PORT + 1 + j,
                {"cc": group.cc, "ecn": group.resolved_ect})
    if fluid_specs or inert_coupling:
        # The receiver is the first host linked, so its switch port is 0.
        tb.couple_fluid(switch, 0, fluid_specs, dt, bg_start_at)
    return tb.run(duration)


def run(seed: int = 0, quick: bool = False) -> dict:
    """CLI entry: the stock hybrid dumbbell + incast, virtual metrics only."""
    duration = 0.05 if quick else 0.2
    out = {}
    for name, result in (
        ("dumbbell", run_hybrid_dumbbell(
            DCTCP, fg_pairs=1, background=DEFAULT_BACKGROUND,
            duration=duration, rate_bps=1e9, seed=seed)),
        ("incast", run_hybrid_incast(
            DCTCP, n_senders=4 if quick else 8,
            background=DEFAULT_BACKGROUND, duration=duration,
            rate_bps=1e9, seed=seed)),
    ):
        topo = result.topology
        fluid = result.fluid
        out[name] = {
            "scheme": result.scheme,
            "duration_s": result.duration,
            "fg_tputs_bps": result.tputs_bps,
            "drop_rate": result.drop_rate,
            "events_processed": result.sim.events_processed,
            "switch_tx_packets": sum(
                sw.total_tx_packets() for sw in topo.switches.values()),
            "fluid_delivered_bytes": sum(
                p["delivered_bytes"] for p in fluid.get("ports", ())),
            "fluid_marked_bytes": sum(
                p["marked_bytes"] for p in fluid.get("ports", ())),
            "fluid_lost_bytes": sum(
                p["wred_dropped_bytes"] + p["tail_lost_bytes"]
                for p in fluid.get("ports", ())),
        }
    return out
