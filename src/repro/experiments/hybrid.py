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

Tier routing is per flow group and part of the Scenario:
``tier_mode="packet"`` simulates everything packet-level (the fidelity
tests' reference) and ``inert_coupling=True`` installs the coupling with
no fluid classes, which must leave the run byte-identical (DESIGN.md
§15).

Everything reported here is virtual-domain (throughputs, marks, byte
counters); wall-clock speedup lives in ``benchmarks/test_bench_hybrid``
where host timing belongs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ..runtime import Experiment, RunSpec
from ..workloads.background import BackgroundFlowGroup
from .common import DATA_PORT, DCTCP, Scheme, Testbed
from .runners import (
    by_label, cell, dumbbell_scenario, incast_scenario, runner)
from .scenario import Flow, FluidCoupling, Scenario

#: Default background mix: a large DCTCP cohort plus a small non-ECT
#: Reno cohort — the Fig. 15/16 ECN-coexistence trap at a population the
#: packet tier could not afford.
DEFAULT_BACKGROUND = (
    BackgroundFlowGroup("bg-dctcp", n_flows=48, rtt_s=1e-3, cc="dctcp"),
    BackgroundFlowGroup("bg-reno", n_flows=16, rtt_s=1e-3, cc="reno"),
)

def _tiers(background: Sequence[BackgroundFlowGroup], tier_mode: str):
    """(one packet-tier group per background flow, fluid-tier groups).

    ``auto``: every group fluid; ``packet``: everything packet-level
    (validation runs).
    """
    if tier_mode == "auto":
        return [], tuple(background)
    if tier_mode == "packet":
        return [g for g in background for _ in range(g.n_flows)], ()
    raise ValueError(f"unknown tier mode {tier_mode!r}")


def hybrid_dumbbell_scenario(
    scheme: Scheme = DCTCP,
    fg_pairs: int = 1,
    background: Sequence[BackgroundFlowGroup] = (),
    duration: float = 1.0,
    mtu: int = 1500,
    rate_bps: float = 10e9,
    seed: int = 0,
    bg_start_at: float = 0.005,
    tier_mode: str = "auto",
    inert_coupling: bool = False,
    rtt_probe: bool = False,
    probe_interval: float = 0.001,
    fg_conn_opts: Optional[dict] = None,
) -> Scenario:
    """Foreground pairs on the Fig. 7a dumbbell, background on the
    forward bottleneck port (sw-left -> sw-right).

    Packet-tier background groups expand into real sender/receiver
    pairs; fluid groups become flow classes at the bottleneck.
    ``fg_conn_opts`` sets :class:`Flow` fields of the foreground flows.
    """
    packet, fluid = _tiers(background, tier_mode)
    fg = dumbbell_scenario(scheme, fg_pairs, duration, mtu, rate_bps, seed,
                           rtt_probe=rtt_probe, probe_interval=probe_interval)
    flows = [replace(flow, **(fg_conn_opts or {})) for flow in fg.flows]
    flows += [Flow(f"s{i + 1}", f"r{i + 1}", cc=group.cc,
                   ecn=group.ect)
              for i, group in enumerate(packet, fg_pairs)]
    # Port 0 of sw-left is the inter-switch wire (dumbbell() links the
    # switches before any host), i.e. the forward bottleneck.
    coupling = (FluidCoupling("sw-left", 0, fluid, bg_start_at)
                if fluid or inert_coupling else None)
    return replace(fg, size=len(flows), flows=tuple(flows), fluid=coupling)


def hybrid_incast_scenario(
    scheme: Scheme = DCTCP,
    n_senders: int = 8,
    background: Sequence[BackgroundFlowGroup] = (),
    duration: float = 0.4,
    mtu: int = 1500,
    rate_bps: float = 10e9,
    seed: int = 0,
    bg_start_at: float = 0.005,
    tier_mode: str = "auto",
    inert_coupling: bool = False,
) -> Scenario:
    """N-to-1 packet incast (Fig. 18 shape) with fluid background
    pressing the same receiver port.

    The background shares the incast victims' bottleneck — the
    receiver's switch port — so the storm arrives at a buffer already
    under pressure, which is how incast happens in production.
    """
    packet, fluid = _tiers(background, tier_mode)
    storm = incast_scenario(scheme, n_senders, duration, mtu, rate_bps, seed)
    flows = storm.flows + tuple(
        Flow(f"h{n_senders + j + 2}", "h1", DATA_PORT + 1 + j, cc=group.cc,
             ecn=group.ect) for j, group in enumerate(packet))
    # The receiver is the first host linked, so its switch port is 0.
    coupling = (FluidCoupling("sw", 0, fluid, bg_start_at)
                if fluid or inert_coupling else None)
    # No probe, and throughput over the whole run.
    return replace(storm, size=len(flows) + 1, measure_from=0.0, probe=None,
                   flows=flows, fluid=coupling)


run_hybrid_dumbbell = runner(hybrid_dumbbell_scenario, "obs")
run_hybrid_incast = runner(hybrid_incast_scenario, "obs")


def _cell(scenario: dict) -> dict:
    """Runtime worker: one hybrid run's virtual metrics."""
    result = Testbed(Scenario.from_json(scenario)).run()
    ports = result.fluid.get("ports", ())
    return {
        "scheme": result.scheme,
        "duration_s": result.duration,
        "fg_tputs_bps": result.tputs_bps,
        "drop_rate": result.drop_rate,
        "events_processed": result.sim.events_processed,
        "switch_tx_packets": sum(
            sw.total_tx_packets() for sw in result.topology.switches.values()),
        "fluid_delivered_bytes": sum(p["delivered_bytes"] for p in ports),
        "fluid_marked_bytes": sum(p["marked_bytes"] for p in ports),
        "fluid_lost_bytes": sum(p["wred_dropped_bytes"] + p["tail_lost_bytes"]
                                for p in ports),
    }


def cells(seed: int, duration: float = 0.2,
          n_senders: int = 8) -> List[RunSpec]:
    """The stock hybrid dumbbell, then the hybrid incast."""
    return [cell(scenario, f"{__name__}:_cell") for scenario in (
        hybrid_dumbbell_scenario(DCTCP, fg_pairs=1,
                                 background=DEFAULT_BACKGROUND,
                                 duration=duration, rate_bps=1e9, seed=seed),
        hybrid_incast_scenario(DCTCP, n_senders=n_senders,
                               background=DEFAULT_BACKGROUND,
                               duration=duration, rate_bps=1e9, seed=seed))]


#: CLI entry: the stock hybrid dumbbell + incast, virtual metrics only.
run = Experiment(cells, by_label(("dumbbell", "incast")),
                 quick={"duration": 0.05, "n_senders": 4})
