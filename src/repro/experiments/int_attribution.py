"""INT bottleneck attribution: which hop owns the p99 message FCT?

The headline demonstration for the in-network telemetry pipeline
(``repro.obs.int``, DESIGN.md §16).  An incast of fixed-size messages
crosses a two-switch asymmetric path:

* ``variant="edge"`` — the receiver's *access* link is 10× slower than
  everything else, so the congestion lives at the far hop
  (``sw-edge.p1``, the receiver-facing port);
* ``variant="core"`` — the inter-switch *trunk* is the slow link, so
  the congestion lives at the near hop (``sw-core.p0``).

End-to-end metrics (p99 FCT, drops) look identical in shape between the
variants — the whole point of per-hop telemetry is that the INT reports
do not: the bottleneck attribution table names the loaded hop, and
flipping the variant flips the attribution.  The run also attributes
the *p99 message specifically*: the ``int.report`` events scoped to that
message's flow during its lifetime name the hop that made it slow.

Everything here is deterministic (seeded workload, RNG-free telemetry);
``_cell`` takes plain-JSON kwargs so the runtime byte-identity tests can
replay it through serial, pool and cache paths.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..metrics import percentile
from ..metrics.collectors import FctRecorder
from ..net.topology import Topology
from ..obs import IntTelemetry, ObsContext
from ..obs.export import write_jsonl
from ..obs.int import attribution
from ..runtime import Experiment, RunSpec
from ..workloads.apps import MessageStream, Sink
from .common import ACDC, DATA_PORT, Taps, Testbed
from .scenario import Scenario

#: Slow-link ratio: the bottleneck link runs at line rate over this.
SLOWDOWN = 10.0

#: Expected bottleneck hop id per variant (port order is fixed by the
#: build: the trunk is linked before any host, the receiver before the
#: senders, so sw-core.p0 = trunk, sw-edge.p1 = receiver access).
EXPECTED_HOP = {"edge": "sw-edge.p1", "core": "sw-core.p0"}


def _build(variant: str, sim, n_senders: int, rate_bps: float, mtu: int,
           seed: int, **switch_opts):
    """Two-switch asymmetric path; returns (topo, senders, receiver).

    ``rate_bps`` is the slow link's rate: the Testbed sizes the WRED/DT
    thresholds for it — it is the bottleneck whose marking behaviour
    matters, as in the stock runners.  Everything else runs
    ``SLOWDOWN`` times faster.
    """
    line_rate_bps = rate_bps * SLOWDOWN
    topo = Topology(sim, seed=seed)
    core = topo.add_switch("sw-core", **switch_opts)
    edge = topo.add_switch("sw-edge", **switch_opts)
    topo.link_switches(core, edge,
                       rate_bps if variant == "core" else line_rate_bps)
    receiver = topo.add_host("recv", mtu=mtu)
    topo.link_host(receiver, edge,
                   rate_bps if variant == "edge" else line_rate_bps)
    senders = []
    for i in range(n_senders):
        host = topo.add_host(f"s{i + 1}", mtu=mtu)
        topo.link_host(host, core, line_rate_bps)
        senders.append(host)
    topo.finalize()
    return topo, senders, receiver


#: The variants' topologies, as Scenario builders.
edge_path, core_path = partial(_build, "edge"), partial(_build, "core")


def _cell(variant: str, n_senders: int = 8, msg_bytes: int = 32_768,
          rounds: int = 4, rate_bps: float = 1e9, mtu: int = 1500,
          seed: int = 0, telemetry: bool = False) -> dict:
    """One variant's incast run with INT on; plain-JSON kwargs only."""
    if variant not in EXPECTED_HOP:
        raise ValueError(f"unknown variant {variant!r}")
    slow = rate_bps / SLOWDOWN
    # Connections establish quietly, then synchronized message rounds —
    # every round is one incast burst through the slow link.
    storm_at = 0.01
    round_s = 2.0 * n_senders * msg_bytes * 8.0 / slow
    duration = storm_at + (rounds + 1) * round_s
    obs, tel = ObsContext(), IntTelemetry()
    tb = Testbed(Scenario(ACDC, f"{__name__}:{variant}_path", n_senders,
                          duration, slow, mtu, seed),
                 Taps(obs=obs, int_tel=tel))
    sim = tb.sim
    senders, receiver = tb.parts

    conn_opts = ACDC.conn_opts()
    recorder = FctRecorder()
    sink = Sink(receiver, DATA_PORT, **conn_opts)
    streams = [MessageStream(sim, sender, receiver.addr, DATA_PORT, sink,
                             recorder, label=f"{sender.addr}>recv",
                             conn_opts=dict(conn_opts))
               for sender in senders]
    for r in range(rounds):
        for stream in streams:
            sim.schedule_at(storm_at + r * round_s,
                            stream.send_message, msg_bytes)
    result = tb.run()

    fcts = sorted(recorder.fcts())
    p99 = percentile(fcts, 99) if fcts else None
    records = obs.bus.records()
    # Data-direction INT reports only: the ACK-direction flows (recv ->
    # sender) carry their own telemetry, irrelevant to message FCT.
    data_reports = [r for r in records
                    if str(r.get("type", "")).startswith("int.")
                    and ">recv:" in str(r.get("flow") or "")]
    table = attribution(data_reports)

    # Per-message attribution of the p99 message itself: the reports
    # scoped to its flow during its lifetime.
    p99_attribution: Optional[dict] = None
    if p99 is not None:
        slowest = min((r for r in recorder.completed() if r.fct >= p99),
                      key=lambda r: r.fct)
        src = slowest.label.split(">", 1)[0]
        window = [r for r in data_reports
                  if str(r.get("flow", "")).startswith(f"{src}:")
                  and slowest.start <= r.get("t", 0.0) <= slowest.end]
        per_msg = attribution(window)
        p99_attribution = {
            "flow": slowest.label,
            "fct_ms": slowest.fct * 1e3,
            "hop": next(iter(per_msg), None),
            "attribution": per_msg,
        }

    bottleneck = next(iter(table), None)
    out: Dict[str, object] = {
        "variant": variant,
        "expected_hop": EXPECTED_HOP[variant],
        "bottleneck_hop": bottleneck,
        "attribution_correct": bottleneck == EXPECTED_HOP[variant],
        "completed": len(fcts),
        "expected_messages": n_senders * rounds,
        "p99_fct_ms": p99 * 1e3 if p99 is not None else None,
        "drop_rate_pct": result.drop_rate * 100.0,
        "attribution": table,
        "p99_attribution": p99_attribution,
        "int": tel.snapshot(),
    }
    if telemetry:
        out["telemetry"] = result.telemetry
        out["trace"] = records
    return out


def cells(seed: int, trace_path: Optional[str], n_senders: int = 8,
          rounds: int = 4) -> List[RunSpec]:
    return [RunSpec(f"{__name__}:_cell", {
        "variant": variant, "n_senders": n_senders, "rounds": rounds,
        "seed": seed, "telemetry": trace_path is not None})
        for variant in ("edge", "core")]


def reduce(results: List[dict], trace_path: Optional[str],
           **_) -> Dict[str, object]:
    """Both variants; the attribution table must flip with the topology."""
    edge, core = results
    out = {"edge": edge, "core": core, "attribution_flips":
           edge["bottleneck_hop"] != core["bottleneck_hop"]}
    if trace_path is not None:
        for cell in results:
            del cell["telemetry"]
        out["trace_path"] = write_jsonl(
            [r for cell in results for r in cell.pop("trace")], trace_path)
    return out


run = Experiment(cells, reduce, quick={"n_senders": 4, "rounds": 2},
                 traces=True)
