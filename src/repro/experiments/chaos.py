"""Chaos experiment: goodput degradation vs fault intensity.

Not a paper figure — a robustness probe of the reproduction itself.  The
three baseline schemes each run fixed-size transfers on the three-host
star while every injector from :mod:`repro.faults` tortures the wire at
a swept intensity, and (at nonzero intensity) the AC/DC vSwitches on one
sender and the receiver are restarted mid-transfer.  The claims under
test:

* transfers still complete at datacenter-realistic fault rates (1–2%),
  for AC/DC no worse than for the plain-OVS schemes — the vSwitch layer
  adds no new fragility;
* a vSwitch restart loses no connection: flow entries resurrect mid-flow
  from the first post-restart packet (§4's soft-state design) and the
  feedback channel resyncs;
* every injected event is accounted, per cause
  (:func:`~repro.faults.fault_counts`): none at intensity 0, and every
  installed kind fires above it — a vSwitch restart only where an AC/DC
  vSwitch ran one, so the plain-OVS schemes count none.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..faults import (
    Corruption,
    DelayJitter,
    Duplication,
    Fault,
    LinkFlap,
    PacketLoss,
    Reordering,
    VswitchRestart,
    fault_counts,
    install_faults,
)
from ..faults.injectors import FLAP_PERIOD_S
from ..runtime import Experiment, RunSpec
from .common import (
    ALL_SCHEMES,
    DATA_PORT,
    MICRO_RATE,
    SCHEME_BY_NAME,
    Scheme,
    Testbed,
)
from .scenario import Flow, Scenario

#: Virtual instant of the mid-transfer vSwitch restarts (the unfaulted
#: 2x4 MB transfer takes ~7 ms, so 2 ms is genuinely mid-flow).
RESTART_AT = 0.002


def fault_chain(intensity: float, seed: int) -> List[Fault]:
    """Every injector type, scaled to one intensity knob.

    ``intensity`` is the marginal probability for loss/reordering; the
    rarer real-world causes (corruption, duplication) run at half of it,
    and the link is down for ``intensity`` of each flap period.
    """
    if intensity <= 0.0:
        return []
    return [
        PacketLoss(intensity, seed=seed + 1),
        Corruption(intensity / 2.0, seed=seed + 2),
        Duplication(intensity / 2.0, seed=seed + 3),
        Reordering(intensity, seed=seed + 4),
        DelayJitter(intensity, seed=seed + 5),
        LinkFlap(intensity * FLAP_PERIOD_S, seed=seed + 6),
    ]


def run_point(scheme: Scheme, intensity: float, seed: int = 0,
              size_bytes: int = 4_000_000, duration: float = 0.5) -> dict:
    """One (scheme, intensity) cell of the sweep."""
    # Two fixed-size transfers into the third host.
    flows = tuple(Flow.of(scheme, f"h{i + 1}", "h3", DATA_PORT + i,
                          size=size_bytes) for i in range(2))
    tb = Testbed(Scenario(scheme, "star", 3, duration, MICRO_RATE, 1500, seed,
                          flows=flows))
    hosts, _switch = tb.parts
    senders, receiver = hosts[:2], hosts[2]
    chains: List[Fault] = []
    # Fault chains sit on the senders' wires only: every packet crosses
    # exactly one chain, so each injector acts at its nominal rate (a
    # chain on the receiver too would square the survival probability).
    for i, host in enumerate(senders):
        faults = fault_chain(intensity, seed=seed + 100 * (i + 1))
        if intensity > 0.0 and i == 0:
            faults.append(VswitchRestart(at=(RESTART_AT,)))
        if faults:
            install_faults(host, faults)
            chains.extend(faults)
    if intensity > 0.0:
        restart = VswitchRestart(at=(RESTART_AT,))
        install_faults(receiver, [restart])
        chains.append(restart)
    flows = tb.run().flows
    done = [f for f in flows if f.bytes_acked >= size_bytes]
    finished = max((f.conn.closed_at or duration for f in done),
                   default=duration) if len(done) == len(flows) else duration
    total_bits = sum(f.bytes_acked for f in flows) * 8.0
    result = {
        "intensity": intensity,
        "goodput_gbps": total_bits / max(finished, 1e-9) / 1e9,
        "completed": len(done),
        "flows": len(flows),
        "fault_counts": fault_counts(chains),
    }
    if scheme.vswitch == "acdc":
        acdc = [tb.vswitches[h.addr] for h in hosts]
        result["restarts"] = sum(v.restarts for v in acdc)
        result["resurrections"] = sum(v.resurrections for v in acdc)
        result["feedback_resyncs"] = sum(
            e.feedback_reader.resyncs
            for v in acdc for e in v.table)
    return result


def _cell(scheme: str, intensity: float, seed: int, size_bytes: int,
          duration: float) -> dict:
    """Runtime worker: one (scheme, intensity, seed) cell, JSON kwargs."""
    return run_point(SCHEME_BY_NAME[scheme], intensity, seed=seed,
                     size_bytes=size_bytes, duration=duration)


def cells(seed: int, size_bytes: int, duration: float,
          intensities: Sequence[float]) -> List[RunSpec]:
    """Every (scheme, intensity) cell of the sweep."""
    return [RunSpec(f"{__name__}:_cell",
                    {"scheme": s.name, "intensity": x, "seed": seed,
                     "size_bytes": size_bytes, "duration": duration})
            for s in ALL_SCHEMES for x in intensities]


def reduce(results: List[dict], intensities: Sequence[float],
           **_) -> Dict[str, List[dict]]:
    """Per-scheme curves: one point per intensity."""
    n = len(intensities)
    return {s.name: results[i * n:(i + 1) * n]
            for i, s in enumerate(ALL_SCHEMES)}


run = Experiment(cells, reduce,
                 {"size_bytes": 4_000_000, "duration": 0.5,
                  "intensities": (0.0, 0.01, 0.02, 0.05)},
                 quick={"size_bytes": 1_000_000, "duration": 0.2,
                        "intensities": (0.0, 0.01)})
