"""Coupling layer: fluid flow classes <-> the packet datapath.

A :class:`FluidPort` owns the fluid state at one switch output port and
advances it one timestep at a time:

1. **inject** — each class offers ``n_flows * cwnd / rtt * dt`` bytes;
2. **WRED** — the port's own :class:`~repro.net.red.EcnMarker` evaluates
   the batch at the *composed* occupancy (packet + fluid), marking ECT
   bytes and shaving non-ECT bytes along the drop ramp
   (:meth:`~repro.net.red.EcnMarker.decide_batch`: expected-value, no
   RNG draws);
3. **DT admission** — the fluid backlog is capped by the closed form of
   Dynamic Threshold admission, ``q_pkt + B <= alpha * (free - B)``,
   i.e. ``B <= (alpha*free_excl - q_pkt) / (1 + alpha)``; excess bytes
   are tail losses fed back to the classes;
4. **drain** — the backlog drains through the *residual* link capacity:
   the line rate's byte budget for the step minus what the packet tier
   actually transmitted (read off the port's tx counter), split across
   classes in proportion to their backlogs;
5. **charge** — the surviving backlog is installed as the shared
   buffer's occupancy overlay (:meth:`SharedBuffer.set_overlay`), which
   is what the packet tier's WRED and DT admission see next;
6. **feedback** — each class closes its per-RTT window and runs its
   congestion-control law on the marked/lost byte fractions.

In the other direction the packet tier feels the fluid through two
hooks on :class:`~repro.net.link.SwitchTxPort`: the composed occupancy
(pressure on WRED and DT) and :meth:`FluidPort.service_inflation`, a
port tap, which stretches packet serialization by
``rate / (rate - fluid_bps)`` — the interleaving a real serializer would
impose.  Both hooks return exact identity values when the port carries
no fluid arrivals, which is the byte-identity contract for
zero-background hybrid runs.

The whole layer is deterministic: plain float arithmetic, no RNG, no
wall clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net.buffer import DT_ALPHA, SharedBuffer
from ..net.link import SwitchTxPort
from ..net.red import EcnMarker
from ..sim.engine import PeriodicSource, Simulator
from .model import FluidClass, FluidFlowSpec

#: Default fluid timestep: 0.1 ms, an order below the testbed RTTs, so
#: the per-RTT feedback law sees many steps per window.
DEFAULT_DT_S = 1e-4

#: Floor on the packet tier's share of the serializer.  Caps service
#: inflation at 1/MIN_PACKET_SHARE even if fluid arrivals exceed line
#: rate — an overloaded fluid tier builds backlog (and gets squeezed by
#: its own feedback) instead of starving the packet tier outright.
MIN_PACKET_SHARE = 0.05


class FluidPort:
    """Fluid state and coupling for one switch output port."""

    def __init__(self, port: SwitchTxPort, shared: SharedBuffer,
                 marker: EcnMarker, dt: float = DEFAULT_DT_S):
        if dt <= 0:
            raise ValueError("fluid timestep must be positive")
        self.port = port
        self.shared = shared
        self.marker = marker
        self.queue_id = port.queue_id
        self.dt = dt
        self.classes: List[FluidClass] = []
        #: Admitted fluid arrival rate over the last step, in bits/s —
        #: what :meth:`service_inflation` charges against the serializer.
        self.arrival_bps = 0.0
        self._last_tx_bytes = 0
        # Lifetime aggregates (telemetry / benchmark accounting).
        self.offered_bytes = 0.0
        self.delivered_bytes = 0.0
        self.marked_bytes = 0.0
        self.wred_dropped_bytes = 0.0
        self.tail_lost_bytes = 0.0
        self.steps = 0
        # Coupling observability (repro.obs flattens these into the
        # RunResult.telemetry snapshot): high-water of the occupancy
        # overlay charged into the shared buffer, high-water of the
        # serialization inflation the packet tier felt, and the most
        # recent tick's marked/offered fraction.
        self.overlay_peak_bytes = 0
        self.inflation_peak = 1.0
        self.mark_fraction = 0.0

    # ------------------------------------------------------------------
    def add_class(self, spec: FluidFlowSpec) -> FluidClass:
        cls = FluidClass(spec)
        self.classes.append(cls)
        return cls

    def service_inflation(self) -> float:
        """Serialization stretch factor from fluid bandwidth share.

        Exactly ``1.0`` when no fluid bytes arrived last step — the
        multiply in ``TxPort.enqueue`` (sampled as a packet is offered)
        is then an exact float identity, preserving byte-identical
        pure-packet behaviour.
        """
        arrival = self.arrival_bps
        if arrival <= 0.0:
            return 1.0
        rate = self.port.rate_bps
        if rate <= 0.0:
            return 1.0
        ceiling = rate * (1.0 - MIN_PACKET_SHARE)
        if arrival > ceiling:
            arrival = ceiling
        return rate / (rate - arrival)

    # ------------------------------------------------------------------
    def step(self, dt: Optional[float] = None) -> None:
        """Advance the fluid state by one timestep (see module docstring)."""
        if dt is None:
            dt = self.dt
        self.steps += 1
        shared = self.shared
        qid = self.queue_id

        # (1)+(2) inject through the batch WRED profile at the composed
        # occupancy the arrivals actually see.
        occupancy = shared.occupancy(qid)
        arrivals = []
        admitted_total = 0.0
        offered_step = 0.0
        marked_step = 0.0
        for cls in self.classes:
            offered = cls.offered_rate_bps() / 8.0 * dt
            cls.offered_bytes += offered
            cls.win_sent += offered
            if cls.spec.ect:
                batch = self.marker.decide_batch(occupancy,
                                                 ect_bytes=offered)
                arrived = offered          # marked bytes still enqueue
                cls.marked_bytes += batch.marked_bytes
                cls.win_marked += batch.marked_bytes
                self.marked_bytes += batch.marked_bytes
                marked_step += batch.marked_bytes
            else:
                batch = self.marker.decide_batch(occupancy,
                                                 nonect_bytes=offered)
                arrived = offered - batch.dropped_bytes
                cls.lost_bytes += batch.dropped_bytes
                cls.win_lost += batch.dropped_bytes
                self.wred_dropped_bytes += batch.dropped_bytes
            arrivals.append(arrived)
            admitted_total += arrived
            self.offered_bytes += offered
            offered_step += offered

        # (3) Dynamic Threshold admission, closed form over the batch.
        backlog_total = 0.0
        for cls, arrived in zip(self.classes, arrivals):
            cls.backlog += arrived
            backlog_total += cls.backlog
        free_excl = (shared.capacity - shared.used
                     - (shared.overlay_total - shared.overlay_bytes(qid)))
        q_pkt = shared.queue_bytes(qid)
        cap = (DT_ALPHA * free_excl - q_pkt) / (1.0 + DT_ALPHA)
        if cap < 0.0:
            cap = 0.0
        if backlog_total > cap:
            scale = cap / backlog_total if backlog_total > 0.0 else 0.0
            shaved = 0.0
            for cls in self.classes:
                loss = cls.backlog * (1.0 - scale)
                cls.backlog -= loss
                cls.lost_bytes += loss
                cls.win_lost += loss
                shaved += loss
            self.tail_lost_bytes += shaved
            admitted_total -= shaved
            if admitted_total < 0.0:
                admitted_total = 0.0
            backlog_total = cap

        # (4) drain through residual link capacity (line-rate byte budget
        # minus the packet tier's actual transmissions this step).
        tx_bytes = self.port.stats.tx_bytes
        pkt_delta = tx_bytes - self._last_tx_bytes
        self._last_tx_bytes = tx_bytes
        budget = self.port.rate_bps / 8.0 * dt - pkt_delta
        if budget > 0.0 and backlog_total > 0.0:
            if budget >= backlog_total:
                drained = backlog_total
                for cls in self.classes:
                    cls.delivered_bytes += cls.backlog
                    cls.backlog = 0.0
                backlog_total = 0.0
            else:
                share = budget / backlog_total
                drained = budget
                for cls in self.classes:
                    out = cls.backlog * share
                    cls.backlog -= out
                    cls.delivered_bytes += out
                backlog_total -= budget
            self.delivered_bytes += drained

        # (5) charge the surviving backlog into the shared pool.
        overlay = int(backlog_total)
        shared.set_overlay(qid, overlay)
        if overlay > self.overlay_peak_bytes:
            self.overlay_peak_bytes = overlay

        # (6) close per-RTT feedback windows.
        for cls in self.classes:
            cls.advance_feedback(dt)

        self.arrival_bps = admitted_total * 8.0 / dt
        self.mark_fraction = (marked_step / offered_step
                              if offered_step > 0.0 else 0.0)
        inflation = self.service_inflation()
        if inflation > self.inflation_peak:
            self.inflation_peak = inflation

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters in metric-source shape (see repro.obs)."""
        return {
            "queue_id": self.queue_id,
            "steps": self.steps,
            "arrival_bps": self.arrival_bps,
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "marked_bytes": self.marked_bytes,
            "wred_dropped_bytes": self.wred_dropped_bytes,
            "tail_lost_bytes": self.tail_lost_bytes,
            "overlay_bytes": self.shared.overlay_bytes(self.queue_id),
            "overlay_peak_bytes": self.overlay_peak_bytes,
            "inflation_peak": self.inflation_peak,
            "mark_fraction": self.mark_fraction,
            "classes": [cls.snapshot() for cls in self.classes],
        }


class FluidTier:
    """All fluid ports of a run, advanced by one periodic event source.

    ``couple`` wires a :class:`FluidPort` onto a switch port (installing
    the occupancy/serialization hooks); ``start`` schedules the stepper
    — but **only if some coupled port actually carries flow classes**.
    A tier with no classes schedules nothing and every hook returns its
    identity value, so building the hybrid plumbing with zero background
    leaves the event stream byte-identical to pure-packet mode.
    """

    def __init__(self, sim: Simulator, dt: float = DEFAULT_DT_S):
        if dt <= 0:
            raise ValueError("fluid timestep must be positive")
        self.sim = sim
        self.dt = dt
        self.ports: List[FluidPort] = []
        self._source: Optional[PeriodicSource] = None

    def couple(self, switch, port_id: int,
               classes: tuple = ()) -> FluidPort:
        """Attach a fluid port to ``switch.ports[port_id]``."""
        port = switch.ports[port_id]
        fport = FluidPort(port, switch.shared, switch.marker, dt=self.dt)
        for spec in classes:
            fport.add_class(spec)
        port.add_tap(fport)
        self.ports.append(fport)
        return fport

    @property
    def active(self) -> bool:
        """True when at least one coupled port carries flow classes."""
        return any(fp.classes for fp in self.ports)

    def start(self, start_at: Optional[float] = None) -> None:
        """Schedule the stepper (idempotent; no-op without classes)."""
        if self._source is None and self.active:
            self._source = self.sim.schedule_periodic(
                self.dt, self._step, start_at=start_at)

    def stop(self) -> None:
        if self._source is not None:
            self._source.stop()
            self._source = None

    def _step(self) -> None:
        for fport in self.ports:
            fport.step(self.dt)

    # ------------------------------------------------------------------
    def delivered_packets(self, mss: int = 1460) -> float:
        """Fluid bytes delivered, in MSS-sized packet equivalents."""
        return sum(fp.delivered_bytes for fp in self.ports) / mss

    def snapshot(self) -> dict:
        return {
            "dt_s": self.dt,
            "active": self.active,
            "ports": [fp.snapshot() for fp in self.ports],
        }
