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
from typing import Dict

from ..core import AcdcConfig
from ..metrics import jain_index, percentile
from ..net.packet import mss_for_mtu
from .common import ACDC, DCTCP, MICRO_RATE, Scheme, Testbed
from .runners import dumbbell_scenario, run_dumbbell, run_incast


# ----------------------------------------------------------------------
# A1: policing non-conforming stacks
# ----------------------------------------------------------------------
def run_policing(duration: float = 0.8, mtu: int = 9000,
                 seed: int = 0) -> Dict[str, dict]:
    """Flow 1 cheats (ignores RWND); flows 2-5 conform.

    Without policing, the cheater escapes enforcement and grabs
    bandwidth; with policing its excess packets die in its own vSwitch,
    so cheating yields no advantage (and plenty of drops).
    """
    out: Dict[str, dict] = {}
    for label, police in (("no-policing", False), ("policing", True)):
        config = AcdcConfig(police=police)
        out[label] = _run_with_cheater(config, duration, mtu, seed)
    return out


def _run_with_cheater(config: AcdcConfig, duration: float, mtu: int,
                      seed: int) -> dict:
    fair = dumbbell_scenario(ACDC, pairs=5, duration=duration, mtu=mtu,
                             rate_bps=MICRO_RATE, seed=seed, rtt_probe=False,
                             acdc_config=config)
    cheater = replace(fair.flows[0], ignore_rwnd=True)
    r = Testbed(replace(fair, flows=(cheater,) + fair.flows[1:])).run()
    tputs = [f.bytes_acked * 8 / duration / 1e9 for f in r.flows]
    policer_drops = sum(v.policer.drops for v in r.vswitches.values())
    return {
        "cheater_gbps": tputs[0],
        "conforming_gbps": tputs[1:],
        "cheater_advantage": tputs[0] / (sum(tputs[1:]) / 4.0),
        "fairness": jain_index(tputs),
        "policer_drops": policer_drops,
    }


# ----------------------------------------------------------------------
# A2: feedback channel
# ----------------------------------------------------------------------
def run_feedback_modes(duration: float = 0.8, mtu: int = 9000,
                       seed: int = 0) -> Dict[str, dict]:
    """PACK vs FACK-only feedback: equivalent signal, different packets."""
    out: Dict[str, dict] = {}
    for mode in ("pack", "fack-only"):
        r = run_dumbbell(
            ACDC, pairs=5, duration=duration, mtu=mtu, seed=seed,
            acdc_config=AcdcConfig(feedback_mode=mode))
        packs = facks = 0
        for v in r.vswitches.values():
            for entry in v.table:
                packs += entry.receiver_feedback.packs_attached
                facks += entry.receiver_feedback.facks_created
        out[mode] = {
            "avg_tput_gbps": r.avg_tput_bps / 1e9,
            "fairness": r.fairness,
            "rtt_p50_us": percentile(r.rtt_samples, 50) * 1e6,
            "packs": packs,
            "facks": facks,
        }
    return out


# ----------------------------------------------------------------------
# A3: hiding ECN from the VM
# ----------------------------------------------------------------------
def run_ecn_hiding(duration: float = 0.8, mtu: int = 9000,
                   seed: int = 0) -> Dict[str, dict]:
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
    out: Dict[str, dict] = {}
    for label, hide in (("hide-ecn", True), ("expose-ecn", False)):
        r = run_dumbbell(
            scheme, pairs=5, duration=duration, mtu=mtu, seed=seed,
            acdc_config=AcdcConfig(hide_ecn=hide))
        guests_reacted = sum(
            1 for f in r.flows if f.conn.ecn_reduce_point > 0)
        out[label] = {
            "avg_tput_gbps": r.avg_tput_bps / 1e9,
            "total_gbps": sum(r.tputs_bps) / 1e9,
            "fairness": r.fairness,
            "rtt_p50_us": percentile(r.rtt_samples, 50) * 1e6,
            "guests_reacted": guests_reacted,
        }
    return out


# ----------------------------------------------------------------------
# A4: RWND floor vs DCTCP's 2-packet CWND floor
# ----------------------------------------------------------------------
def run_window_floor(n_senders: int = 40, duration: float = 0.4,
                     mtu: int = 9000, seed: int = 0) -> Dict[str, dict]:
    """Incast RTT as a function of the minimum-window floor."""
    mss = mss_for_mtu(mtu)
    out: Dict[str, dict] = {}
    configs = {
        "dctcp-2mss-floor": (DCTCP, None, None),
        "acdc-1mss-floor": (ACDC, AcdcConfig(min_wnd_bytes=mss), None),
        "acdc-2mss-floor": (ACDC, AcdcConfig(min_wnd_bytes=2 * mss), None),
        "acdc-halfmss-floor": (ACDC, AcdcConfig(min_wnd_bytes=mss // 2), None),
    }
    for label, (scheme, config, floor) in configs.items():
        r = run_incast(scheme, n_senders=n_senders, duration=duration,
                       mtu=mtu, seed=seed, acdc_config=config,
                       guest_dctcp_floor_mss=floor)
        out[label] = {
            "rtt_p50_ms": percentile(r.rtt_samples, 50) * 1e3,
            "rtt_p999_ms": percentile(r.rtt_samples, 99.9) * 1e3,
            "avg_tput_mbps": r.avg_tput_bps / 1e6,
            "fairness": r.fairness,
            "drop_rate_pct": r.drop_rate * 100.0,
        }
    return out
