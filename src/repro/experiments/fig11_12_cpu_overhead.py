"""Fig. 11/12: CPU overhead of AC/DC vs baseline OVS, sender & receiver.

Two servers on one switch; N concurrent TCP connections each demand
10 Mb/s by sending 128 KB bursts every 100 ms (1,000 connections saturate
the 10 G link).  The testbed measures system-wide CPU with ``sar``; here
the datapaths record their per-packet operations and
:mod:`repro.metrics.cpu_model` prices them (see DESIGN.md for the
substitution).  The claim under test is the *difference*: AC/DC adds less
than one percentage point at every connection count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..metrics.cpu_model import (
    RECEIVER_CONN_TICK_NS,
    RECEIVER_FLOOR_PERCENT,
    SENDER_CONN_TICK_NS,
    SENDER_FLOOR_PERCENT,
    cpu_percent,
)
from ..runtime import Experiment, RunSpec
from ..sim import Simulator
from ..workloads.apps import Sink
from .common import ACDC, CUBIC, DATA_PORT, Testbed
from .runners import cell
from .scenario import Scenario

BURST_BYTES = 128 * 1024
BURST_INTERVAL = 0.1
CONNECTION_COUNTS = (100, 500, 1000, 5000, 10000)


class _BurstApp:
    """One connection sending 128 KB every 100 ms (10 Mb/s demand)."""

    def __init__(self, sim: Simulator, host, dst: str, port: int,
                 start_at: float, conn_opts: dict):
        self.sim = sim
        self.conn = None
        self._host = host
        self._dst = dst
        self._port = port
        self._opts = conn_opts
        sim.schedule_at(start_at, self._start)

    def _start(self) -> None:
        self.conn = self._host.connect(self._dst, self._port, **self._opts)
        self.conn.on_established = self._burst

    def _burst(self) -> None:
        self.conn.send(BURST_BYTES)
        self.sim.schedule(BURST_INTERVAL, self._burst)


def _cell(scenario: dict, connections: int) -> Dict[str, dict]:
    """Runtime worker: ``connections`` bursting connections from the
    first host to the second; each side's CPU% and vSwitch packets."""
    sc = Scenario.from_json(scenario)
    scheme, duration = sc.scheme, sc.duration
    tb = Testbed(sc)
    (sender, receiver), _sw = tb.parts
    Sink(receiver, DATA_PORT, **scheme.conn_opts())
    for i in range(connections):
        # Stagger setup and burst phases across the interval.
        _BurstApp(tb.sim, sender, receiver.addr, DATA_PORT,
                  start_at=(i / connections) * BURST_INTERVAL,
                  conn_opts=scheme.conn_opts())
    vsw = tb.run().vswitches
    floors = {"sender": SENDER_FLOOR_PERCENT, "receiver": RECEIVER_FLOOR_PERCENT}
    ticks = {"sender": SENDER_CONN_TICK_NS, "receiver": RECEIVER_CONN_TICK_NS}
    reports = {}
    for side, host in (("sender", sender), ("receiver", receiver)):
        ops = vsw[host.addr].ops
        report = cpu_percent(
            ops.snapshot(), tx_packets=host.tx_packets,
            rx_packets=host.rx_packets, tx_bytes=host.tx_bytes,
            rx_bytes=host.rx_bytes, connections=connections,
            duration_s=duration, floor_percent=floors[side],
            conn_tick_ns=ticks[side])
        reports[side] = {"total_percent": report.total_percent,
                         "datapath_percent": report.datapath_percent,
                         "packets": ops.packets_egress + ops.packets_ingress}
    return reports


def cells(seed: int, counts: Sequence[int], duration: float, mtu: int,
          rate_bps: float) -> List[RunSpec]:
    """Per connection count: the baseline, then AC/DC."""
    return [cell(Scenario(scheme, "star", 2, duration, rate_bps, mtu, seed),
                 f"{__name__}:_cell", connections=n)
            for n in counts for scheme in (CUBIC, ACDC)]


def reduce(results: List[dict], counts: Sequence[int], **_) -> List[dict]:
    """Rows: per connection count, baseline vs AC/DC CPU%."""
    rows: List[dict] = []
    for n, baseline, acdc in zip(counts, results[0::2], results[1::2]):
        row = {"connections": n}
        for side in ("sender", "receiver"):
            base, over = baseline[side], acdc[side]
            row[f"{side}_baseline_pct"] = base["total_percent"]
            # AC/DC's enforcement slightly changes how much traffic each
            # run delivers at saturation, so the datapath comparison is
            # normalised to the baseline's packet volume (the delta the
            # paper's claim is about is vSwitch work *per packet*).
            scale = (base["packets"] / over["packets"]
                     if over["packets"] else 1.0)
            datapath_delta = (over["datapath_percent"] * scale
                              - base["datapath_percent"])
            row[f"{side}_acdc_pct"] = base["total_percent"] + datapath_delta
            row[f"{side}_delta_pp"] = datapath_delta
        rows.append(row)
    return rows


run = Experiment(cells, reduce, {"counts": CONNECTION_COUNTS,
                                 "duration": 0.25, "mtu": 1500,
                                 "rate_bps": 10e9})
