"""Ablation studies for the design choices §3 calls out.

These are not paper figures; they probe the knobs DESIGN.md lists:

* **A1 policing** — a guest stack that ignores RWND, with and without the
  vSwitch policer dropping its excess packets (§3.3).
* **A2 feedback channel** — PACK piggy-backing (with FACK fallback) vs a
  FACK-only channel: same congestion signal, different packet overhead.
* **A3 ECN hiding** — what happens if AC/DC does *not* strip ECN feedback
  from an ECN-capable guest: the guest halves while AC/DC also reduces
  (double reaction), costing throughput.
* **A4 window floor** — AC/DC's byte-granular RWND floor vs DCTCP's
  2-packet CWND floor under high-fan-in incast (the Fig. 19 effect).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..core import AcdcConfig
from ..metrics import jain_index, percentile
from ..net.packet import mss_for_mtu
from ..runtime import Experiment, RunSpec
from .common import ACDC, DCTCP, MICRO_RATE, RunResult, Scheme, Testbed
from .runners import by_label, cell, dumbbell_scenario, incast_scenario
from .scenario import Scenario


# ----------------------------------------------------------------------
# A1: policing non-conforming stacks
# ----------------------------------------------------------------------
POLICING = {"no-policing": False, "policing": True}


def _cheater_cell(scenario: dict) -> dict:
    """Runtime worker: the cheater's advantage and the policer's drops."""
    sc = Scenario.from_json(scenario)
    r = Testbed(sc).run()
    tputs = [f.bytes_acked * 8 / sc.duration / 1e9 for f in r.flows]
    return {
        "cheater_gbps": tputs[0],
        "conforming_gbps": tputs[1:],
        "cheater_advantage": tputs[0] / (sum(tputs[1:]) / 4.0),
        "fairness": jain_index(tputs),
        "policer_drops": sum(v.policer.drops for v in r.vswitches.values()),
    }


def _policing_cells(seed: int, duration: float, mtu: int) -> List[RunSpec]:
    """Flow 1 cheats (ignores RWND); flows 2-5 conform.

    Without policing, the cheater escapes enforcement and grabs
    bandwidth; with policing its excess packets die in its own vSwitch,
    so cheating yields no advantage (and plenty of drops).
    """
    specs = []
    for police in POLICING.values():
        fair = dumbbell_scenario(ACDC, pairs=5, duration=duration, mtu=mtu,
                                 rate_bps=MICRO_RATE, seed=seed,
                                 rtt_probe=False,
                                 acdc_config=AcdcConfig(police=police))
        cheater = replace(fair.flows[0], ignore_rwnd=True)
        specs.append(cell(replace(fair, flows=(cheater,) + fair.flows[1:]),
                          f"{__name__}:_cheater_cell"))
    return specs


run_policing = Experiment(_policing_cells, by_label(POLICING),
                          {"duration": 0.8, "mtu": 9000})


# ----------------------------------------------------------------------
# A2: feedback channel
# ----------------------------------------------------------------------
FEEDBACK_MODES = ("pack", "fack-only")


def _feedback_cell(scenario: dict) -> dict:
    """Runtime worker: throughput, RTT and feedback packets by kind."""
    r = Testbed(Scenario.from_json(scenario)).run()
    packs = facks = 0
    for v in r.vswitches.values():
        for entry in v.table:
            packs += entry.receiver_feedback.packs_attached
            facks += entry.receiver_feedback.facks_created
    return {
        "avg_tput_gbps": r.avg_tput_bps / 1e9,
        "fairness": r.fairness,
        "rtt_p50_us": percentile(r.rtt_samples, 50) * 1e6,
        "packs": packs,
        "facks": facks,
    }


def _feedback_cells(seed: int, duration: float, mtu: int) -> List[RunSpec]:
    """PACK vs FACK-only feedback: equivalent signal, different packets."""
    return [cell(dumbbell_scenario(
        ACDC, pairs=5, duration=duration, mtu=mtu, seed=seed,
        acdc_config=AcdcConfig(feedback_mode=mode)),
        f"{__name__}:_feedback_cell") for mode in FEEDBACK_MODES]


run_feedback_modes = Experiment(_feedback_cells, by_label(FEEDBACK_MODES),
                                {"duration": 0.8, "mtu": 9000})


# ----------------------------------------------------------------------
# A3: hiding ECN from the VM
# ----------------------------------------------------------------------
HIDING = {"hide-ecn": True, "expose-ecn": False}


def _hiding_cell(scenario: dict) -> dict:
    """Runtime worker: throughput, RTT and how many guests reacted."""
    r = Testbed(Scenario.from_json(scenario)).run()
    return {
        "avg_tput_gbps": r.avg_tput_bps / 1e9,
        "total_gbps": sum(r.tputs_bps) / 1e9,
        "fairness": r.fairness,
        "rtt_p50_us": percentile(r.rtt_samples, 50) * 1e6,
        "guests_reacted": sum(
            1 for f in r.flows if f.conn.ecn_reduce_point > 0),
    }


def _hiding_cells(seed: int, duration: float, mtu: int) -> List[RunSpec]:
    """ECN-capable CUBIC guests under AC/DC, with and without hiding.

    With hiding (the paper's design), the guest never sees CE/ECE and
    stays passive — AC/DC's proportional reaction is the only one.
    Without hiding, the guest's classic halve-on-ECE runs *on top of*
    AC/DC's cut (a double reaction).  Because the guest CWND normally
    parks near twice the enforced RWND, the halvings are largely absorbed
    and throughput survives; the measurable effects are the guest's
    reduction counter and a slightly drained queue.
    """
    scheme = Scheme("acdc-ecn-guest", host_cc="cubic", host_ecn=True,
                    vswitch="acdc", switch_ecn=True)
    return [cell(dumbbell_scenario(
        scheme, pairs=5, duration=duration, mtu=mtu, seed=seed,
        acdc_config=AcdcConfig(hide_ecn=hide)),
        f"{__name__}:_hiding_cell") for hide in HIDING.values()]


run_ecn_hiding = Experiment(_hiding_cells, by_label(HIDING),
                            {"duration": 0.8, "mtu": 9000})


# ----------------------------------------------------------------------
# A4: RWND floor vs DCTCP's 2-packet CWND floor
# ----------------------------------------------------------------------
#: Label -> (scheme, AC/DC's window floor in MSS; None: the default).
FLOORS = {
    "dctcp-2mss-floor": (DCTCP, None),
    "acdc-1mss-floor": (ACDC, 1.0),
    "acdc-2mss-floor": (ACDC, 2.0),
    "acdc-halfmss-floor": (ACDC, 0.5),
}


def _floor_cells(seed: int, n_senders: int, duration: float,
                 mtu: int) -> List[RunSpec]:
    """Incast RTT as a function of the minimum-window floor."""
    mss = mss_for_mtu(mtu)
    return [cell(incast_scenario(
        scheme, n_senders=n_senders, duration=duration, mtu=mtu, seed=seed,
        acdc_config=(None if floor is None
                     else AcdcConfig(min_wnd_bytes=int(floor * mss)))))
        for scheme, floor in FLOORS.values()]


def _floor_row(result: dict) -> dict:
    r = RunResult(**result)
    return {
        "rtt_p50_ms": percentile(r.rtt_samples, 50) * 1e3,
        "rtt_p999_ms": percentile(r.rtt_samples, 99.9) * 1e3,
        "avg_tput_mbps": r.avg_tput_bps / 1e6,
        "fairness": r.fairness,
        "drop_rate_pct": r.drop_rate * 100.0,
    }


run_window_floor = Experiment(_floor_cells, by_label(FLOORS, _floor_row),
                              {"n_senders": 40, "duration": 0.4,
                               "mtu": 9000})
