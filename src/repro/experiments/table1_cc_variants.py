"""Table 1: AC/DC works with many guest congestion-control variants.

Rows: CUBIC* (host CUBIC, plain OVS, no switch ECN) and DCTCP* (host
DCTCP, plain OVS, ECN on) baselines, then six guest stacks — CUBIC, Reno,
DCTCP, Illinois, HighSpeed, Vegas — each running under AC/DC.  Columns:
50th/99th percentile RTT, average throughput, Jain fairness, for both
MTUs.  The paper's claim: every AC/DC row tracks DCTCP*.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..metrics import percentile
from ..runtime import Experiment, RunSpec
from .common import ACDC, CUBIC, DCTCP, RunResult
from .runners import cell, dumbbell_scenario

ACDC_GUESTS = ("cubic", "reno", "dctcp", "illinois", "highspeed", "vegas")


def _row(name: str, result: RunResult) -> dict:
    rtt = result.rtt_samples
    return {
        "variant": name,
        "rtt_p50_us": percentile(rtt, 50) * 1e6 if rtt else float("nan"),
        "rtt_p99_us": percentile(rtt, 99) * 1e6 if rtt else float("nan"),
        "avg_tput_gbps": result.avg_tput_bps / 1e9,
        "fairness": result.fairness,
    }


def _variants(guests: Sequence[str]) -> list:
    """(row name, scheme): the baselines, then every guest under AC/DC."""
    return [("CUBIC*", CUBIC), ("DCTCP*", DCTCP)] + [
        (f"AC/DC({guest})", ACDC.with_host_cc(guest)) for guest in guests]


def cells(seed: int, mtus: Sequence[int], duration: float,
          guests: Sequence[str]) -> List[RunSpec]:
    return [cell(dumbbell_scenario(scheme, duration=duration, mtu=mtu,
                                   seed=seed))
            for mtu in mtus for _name, scheme in _variants(guests)]


def reduce(results: List[dict], mtus: Sequence[int], guests: Sequence[str],
           **_) -> Dict[int, List[dict]]:
    """Table 1 rows for each MTU: baselines + every guest under AC/DC."""
    width = len(_variants(guests))
    return {mtu: [_row(name, RunResult(**result)) for (name, _s), result
                  in zip(_variants(guests), results[i * width:])]
            for i, mtu in enumerate(mtus)}


run = Experiment(cells, reduce, {"mtus": (1500, 9000), "duration": 1.0,
                                 "guests": ACDC_GUESTS})
