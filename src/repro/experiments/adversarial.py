"""Adversarial-tenant experiment: guard on/off under misbehaving guests.

Not a paper figure — the paper's §3.3 policing assumes the administrator
*knows* which flows misbehave; this experiment measures what the
:mod:`repro.guard` subsystem does when nobody tells it.  A star of
senders shares one receiver link; a fraction of the senders cheat
(``ignore_rwnd`` guests that disregard the enforced window, the §5.4
threat model), and we sweep the violator share with the guard enabled
and disabled.  The claims under test:

* **without** the guard, conforming tenants collapse: the cheaters'
  self-clocked CUBIC overruns the enforced window, fills the shared
  queue, and the vSwitch DCTCP dutifully shrinks *everyone's* window;
* **with** the guard, conforming flows retain most of their fair share:
  cheaters are detected from windowed violation rates and walked up the
  escalation ladder (slack-free policing → penalty clamp → quarantine);
* detection-only adversaries (ECN bleaching, ACK division,
  option-stripping middleboxes) are surfaced as guard events, and
  feedback loss degrades the flow to local-signal CC instead of
  silently starving DCTCP;
* the whole transition history is deterministic under a fixed seed
  (the guards' ``(t, type, flow, fields)`` rows, as ``event_signature``).

``run_pressure`` exercises the datapath watchdog separately: a
flow-table budget far below the offered flow count forces deliberate
lowest-priority-first load shedding, and traffic keeps flowing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, List, Sequence

from ..faults import EcnBleach, OptionStrip, install_faults
from ..guard import GuardConfig
from ..metrics import jain_index
from ..runtime import Experiment, RunSpec
from .common import ACDC, MACRO_RATE, Taps, Testbed
from .scenario import Flow, Scenario

DATA_PORT = 6000

#: Supported adversary models (see run_point).
ADVERSARIES = ("ignore_rwnd", "ack_division", "ecn_bleach", "option_strip")


def _testbed(n_senders: int, seed: int, duration: float, guards,
             events: list, ack_splitters=()) -> tuple:
    """The shared star: a bulk flow from each of ``n_senders`` hosts into
    the last one, whose listener splits the ACKs of the flows from
    ``ack_splitters``; every Guard appends to ``events``.  Returns
    (testbed, sender hosts, receiver host)."""
    receiver = f"h{n_senders + 1}"
    flows = tuple(Flow.of(ACDC, f"h{i + 1}", receiver, DATA_PORT + i,
                          ack_division=(8 if f"h{i + 1}" in ack_splitters
                                        else None))
                  for i in range(n_senders))
    tb = Testbed(Scenario(ACDC, "star", n_senders + 1, duration, MACRO_RATE,
                          1500, seed, flows=flows, guards=tuple(guards)),
                 Taps(guard_events=events))
    hosts, _switch = tb.parts
    return tb, hosts[:n_senders], hosts[-1]


def _guard_config(seed: int) -> GuardConfig:
    """Guard tuning for short simulated runs: react within a few RTTs,
    decay an order of magnitude slower than detection."""
    return GuardConfig(decay_base_s=0.02, seed=seed)


def run_point(
    violator_share: float,
    guard_on: bool,
    seed: int = 0,
    n_senders: int = 8,
    duration: float = 0.2,
    adversary: str = "ignore_rwnd",
) -> dict:
    """One cell: ``n_senders`` bulk flows into one receiver, a
    ``violator_share`` fraction of them running the given adversary."""
    if adversary not in ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}")
    events: list = []
    n_violators = int(round(violator_share * n_senders))
    violator_addrs = {f"h{i + 1}" for i in range(n_violators)}
    guards = [(f"h{i + 1}", _guard_config(seed))
              for i in range(n_senders + 1)] if guard_on else ()
    # ACK division is a receiver-side cheat: the adversarial tenant's
    # receiving VM splits cumulative ACKs to inflate its own flows'
    # window growth.
    ack_splitters = violator_addrs if adversary == "ack_division" else ()
    tb, senders, receiver = _testbed(n_senders, seed, duration, guards,
                                     events, ack_splitters)
    violators = senders[:n_violators]

    # Guest-level adversaries are tenant profiles; wire-level ones are
    # fault stages scoped to the violators' traffic.
    if adversary == "ignore_rwnd":
        for host in violators:
            host.set_tenant_profile(ignore_rwnd=True)
    elif adversary == "ecn_bleach" and violators:
        # CE cleared before the receiver vSwitch can count it.
        install_faults(receiver, [EcnBleach(
            direction="ingress",
            match=lambda p: p.src in violator_addrs and p.payload_len > 0)])
    elif adversary == "option_strip" and violators:
        # Feedback options never reach the violators' sender vSwitches.
        for host in violators:
            install_faults(host, [OptionStrip(direction="ingress")])

    r = tb.run()
    flows, vswitches, guards = r.flows, r.vswitches, tb.guards.values()

    goodputs = [f.goodput_bps(duration) for f in flows]
    conforming = [g for f, g in zip(flows, goodputs)
                  if f.host.addr not in violator_addrs]
    violating = [g for f, g in zip(flows, goodputs)
                 if f.host.addr in violator_addrs]
    fair_share = MACRO_RATE / n_senders
    result = {
        "adversary": adversary,
        "violator_share": violator_share,
        "guard": guard_on,
        "goodputs_bps": goodputs,
        "conforming_mean_bps": (sum(conforming) / len(conforming)
                                if conforming else 0.0),
        "violating_mean_bps": (sum(violating) / len(violating)
                               if violating else 0.0),
        "conforming_retention": (sum(conforming) / len(conforming) / fair_share
                                 if conforming else 0.0),
        "jain": jain_index(goodputs),
        "guard_events": dict(Counter(row[1] for row in events)),
        "event_signature": events,
    }
    if guard_on:
        result["police_drops"] = sum(g.police_drops for g in guards)
        result["quarantine_drops"] = sum(g.quarantine_drops for g in guards)
        result["fallbacks"] = sum(g.fallbacks for g in guards)
        result["final_levels"] = sorted(
            (str(e.key), e.guard_state.level, e.guard_state.state)
            for v in vswitches.values() if hasattr(v, "table")
            for e in v.table if e.guard_state is not None
            and (e.guard_state.level > 0 or e.guard_state.total_violations))
    return result


def run_pressure(seed: int = 0, n_senders: int = 8,
                 duration: float = 0.1) -> dict:
    """Watchdog scenario: the receiver vSwitch's flow-table budget is far
    below the offered 2 x n_senders entries, forcing deliberate shedding."""
    events: list = []
    config = _guard_config(seed)
    guards = [(f"h{i + 1}", config) for i in range(n_senders)]
    # The receiver has room for half the offered load: ~2 entries per
    # connection.
    guards.append((f"h{n_senders + 1}",
                   replace(config, max_flow_entries=n_senders)))
    tb, senders, receiver = _testbed(n_senders, seed, duration, guards,
                                     events)
    r = tb.run()
    flows, vswitches = r.flows, r.vswitches
    watchdog = tb.guards[receiver.addr].watchdog
    goodputs = [f.goodput_bps(duration) for f in flows]
    return {
        "n_senders": n_senders,
        "sheds": watchdog.sheds if watchdog is not None else 0,
        "unsheds": watchdog.unsheds if watchdog is not None else 0,
        "shed_entries": sum(1 for e in vswitches[receiver.addr].table
                            if e.shed),
        "goodputs_bps": goodputs,
        "total_goodput_bps": sum(goodputs),
        "guard_events": dict(Counter(row[1] for row in events)),
        "event_signature": events,
    }


DETECTION_ADVERSARIES = ("ecn_bleach", "ack_division", "option_strip")


#: The swept violator shares (``quick`` sweeps the first two).
SHARES = (0.0, 0.25, 0.5)


def cells(seed: int, n_senders: int = 8, duration: float = 0.2,
          shares: Sequence[float] = SHARES) -> List[RunSpec]:
    """Violator share x guard on/off, detection-only adversaries at 25%
    share, then the watchdog pressure scenario."""
    base = {"seed": seed, "n_senders": n_senders, "duration": duration}
    point = f"{__name__}:run_point"
    return ([RunSpec(point, {"violator_share": share, "guard_on": guard_on,
                             **base})
             for share in shares for guard_on in (False, True)]
            + [RunSpec(point, {"violator_share": 0.25, "guard_on": True,
                               **base, "adversary": adversary})
               for adversary in DETECTION_ADVERSARIES]
            + [RunSpec(f"{__name__}:run_pressure",
                       {**base, "duration": min(duration, 0.1)})])


def reduce(results: List[dict], shares: Sequence[float] = SHARES,
           **_) -> Dict[str, object]:
    """The sweep keyed by share and guard, the detection cells by
    adversary, and the pressure cell."""
    labels = [f"share={share:g},guard={guard}"
              for share in shares for guard in ("off", "on")]
    return {
        "sweep": dict(zip(labels, results)),
        "detection": dict(zip(DETECTION_ADVERSARIES,
                              results[len(labels):-1])),
        "pressure": results[-1],
    }


#: Every cell is an independent simulation, so the whole grid fans
#: through the experiment runtime.
run = Experiment(cells, reduce, quick={"n_senders": 4, "duration": 0.06,
                                       "shares": SHARES[:2]})
