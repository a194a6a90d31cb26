"""Fault injectors and the chain that puts them on a host's wire.

A :class:`FaultChain` is one stage of its host's wire, between the
vSwitch and the NIC, mirroring where real networks misbehave:

* egress: :meth:`~repro.net.host.Host.wire_out` runs the chain's stages
  in install order before the NIC — guest packets after the vSwitch
  processed them, and the FACKs the vSwitch injects itself;
* ingress: :meth:`~repro.net.host.Host.receive` counts the packet, runs
  the stages (the packet is still "on the wire"), and the vSwitch sees
  whatever survives.

Stages that re-emit packets asynchronously (duplication, reordering,
delay) cannot use the single-return stage protocol, so the chain exposes
:meth:`FaultChain.resume`: a held or copied packet re-enters the chain
at the stage *after* the one that created it and, if it survives, leaves
through the same exit the in-band path uses, without being counted at
the host a second time.

Determinism: every fault draws from
``RngFactory(seed).stream(f"fault:{kind}")`` — same seed, same kind ⇒
bit-identical fault sequence, independent of other streams.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..net.packet import ECN_ECT0, Packet
from ..obs.trace import WARNING
from ..sim.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover
    from ..net.host import Host

#: Packet predicate used to scope a fault to a traffic class.
Matcher = Callable[[Packet], bool]

#: How long :class:`Reordering` holds a packet back, on average.
REORDER_HOLD_S = 200e-6
#: :class:`DelayJitter`'s bound: each delayed packet waits uniform(0,
#: DELAY_JITTER_S).
DELAY_JITTER_S = 20e-6
#: :class:`LinkFlap`'s period: one outage per period.
FLAP_PERIOD_S = 0.005


class Fault:
    """One composable fault stage.

    Subclasses set :attr:`kind` (also the cause a ``fault.inject``
    decision carries) and implement :meth:`process`; ``direction`` is
    ``"egress"``, ``"ingress"`` or ``"both"``; ``match`` optionally
    narrows the fault to a traffic class (any packet predicate).
    """

    kind = "fault"

    def __init__(self, seed: int = 0, direction: str = "both",
                 match: Optional[Matcher] = None):
        if direction not in ("egress", "ingress", "both"):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        self.match = match
        self.rng = RngFactory(seed).stream(f"fault:{self.kind}")
        self.events = 0  # activations, counted by FaultChain.record

    def attach(self, chain: "FaultChain") -> None:
        """Join ``chain``'s per-packet stages (a scheduled fault overrides
        this to arm its instants instead)."""
        chain.stages.append(self)

    def applies(self, pkt: Packet, direction: str) -> bool:
        if self.direction != "both" and self.direction != direction:
            return False
        return self.match is None or self.match(pkt)

    def process(self, pkt: Packet, pipeline: "FaultChain",
                index: int, direction: str) -> Optional[Packet]:
        """Act on one packet; return it (possibly modified) or None if the
        stage consumed it.  ``index`` is this stage's position, so a stage
        that re-emits later resumes at ``index + 1``."""
        raise NotImplementedError


class PacketLoss(Fault):
    """Drop each matching packet with probability ``rate``."""

    kind = "loss"

    def __init__(self, rate: float, seed: int = 0, direction: str = "both",
                 match: Optional[Matcher] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        super().__init__(seed, direction, match)
        self.rate = rate

    def process(self, pkt, pipeline, index, direction):
        if self.rng.random() < self.rate:
            pipeline.record(self)
            return None
        return pkt


class Corruption(Fault):
    """Flip bits in each matching packet with probability ``rate``.

    Checksum-drop semantics: the receiver NIC verifies the TCP/IP
    checksums, so a corrupted packet never reaches the stack — the
    observable effect is a drop, accounted under its own cause (and, on
    a real link, visible in the NIC's error counters rather than the
    switch's).
    """

    kind = "corrupt"

    def __init__(self, rate: float, seed: int = 0, direction: str = "both",
                 match: Optional[Matcher] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("corruption rate must be in [0, 1]")
        super().__init__(seed, direction, match)
        self.rate = rate

    def process(self, pkt, pipeline, index, direction):
        if self.rng.random() < self.rate:
            pipeline.record(self)
            return None
        return pkt


class Duplication(Fault):
    """Emit an identical copy alongside each matching packet, with
    probability ``rate`` (switch retransmit bugs, routing loops)."""

    kind = "duplicate"

    def __init__(self, rate: float, seed: int = 0, direction: str = "both",
                 match: Optional[Matcher] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("duplication rate must be in [0, 1]")
        super().__init__(seed, direction, match)
        self.rate = rate

    def process(self, pkt, pipeline, index, direction):
        if self.rng.random() < self.rate:
            pipeline.record(self)
            # The copy runs the *remaining* stages independently, so a
            # later loss stage can still kill either twin.
            pipeline.resume(pkt.copy(), index + 1, direction)
        return pkt


class Reordering(Fault):
    """Hold a matching packet back for roughly :data:`REORDER_HOLD_S`
    and re-emit it behind traffic sent in the meantime, with probability
    ``rate``."""

    kind = "reorder"

    def __init__(self, rate: float, seed: int = 0, direction: str = "both",
                 match: Optional[Matcher] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("reorder rate must be in [0, 1]")
        super().__init__(seed, direction, match)
        self.rate = rate

    def process(self, pkt, pipeline, index, direction):
        if self.rng.random() < self.rate:
            pipeline.record(self)
            hold = REORDER_HOLD_S * self.rng.uniform(0.5, 1.5)
            pipeline.sim.schedule(hold, pipeline.resume, pkt, index + 1,
                                  direction)
            return None
        return pkt


class DelayJitter(Fault):
    """Add uniform(0, :data:`DELAY_JITTER_S`) of delay to a matching
    packet, with probability ``rate``.

    Unlike the host's monotonic TX jitter, draws are independent per
    packet, so jitter alone can invert the order of close-together
    packets — that is the point.
    """

    kind = "delay"

    def __init__(self, rate: float, seed: int = 0, direction: str = "both",
                 match: Optional[Matcher] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("delay rate must be in [0, 1]")
        super().__init__(seed, direction, match)
        self.rate = rate

    def process(self, pkt, pipeline, index, direction):
        if self.rate >= 1.0 or self.rng.random() < self.rate:
            pipeline.record(self)
            delay = self.rng.uniform(0.0, DELAY_JITTER_S)
            pipeline.sim.schedule(delay, pipeline.resume, pkt, index + 1,
                                  direction)
            return None
        return pkt


class LinkFlap(Fault):
    """Link outage schedule: everything matching is dropped while down.

    One outage of ``down_for_s`` per :data:`FLAP_PERIOD_S`, its start
    drawn from the fault's seeded stream within each period.  The
    placement draws happen in period order, so the schedule is
    reproducible — but it is *not* phase-locked: a strictly periodic
    outage whose period divides the guest's RTO backoff sequence (10,
    20, 40 ms...) would swallow every retransmission of an unlucky
    segment forever, a measurement artifact rather than a robustness
    result.
    """

    kind = "link_flap"

    def __init__(self, down_for_s: float, seed: int = 0,
                 direction: str = "both", match: Optional[Matcher] = None):
        if not 0.0 <= down_for_s <= FLAP_PERIOD_S:
            raise ValueError("down time must be within one period")
        super().__init__(seed, direction, match)
        self.down_for_s = down_for_s
        self._period_idx = -1
        self._down_start = 0.0

    def is_down(self, now: float) -> bool:
        if self.down_for_s == 0.0:
            return False
        # Simulation time is monotone, so period placements can be drawn
        # lazily in order without replaying the stream.
        idx = int(now / FLAP_PERIOD_S)
        while self._period_idx < idx:
            self._period_idx += 1
            self._down_start = (self._period_idx * FLAP_PERIOD_S
                                + self.rng.uniform(
                                    0.0, FLAP_PERIOD_S - self.down_for_s))
        return self._down_start <= now < self._down_start + self.down_for_s

    def process(self, pkt, pipeline, index, direction):
        if self.is_down(pipeline.sim.now):
            pipeline.record(self)
            return None
        return pkt


class EcnBleach(Fault):
    """Rewrite CE back to ECT on every matching packet (adversarial
    model).

    Models a receiver-side tenant or broken middlebox that clears
    congestion-experienced marks before AC/DC's receiver module can count
    them: the feedback channel keeps reporting total bytes but never a
    marked byte, so DCTCP in the sender vSwitch sees a congestion-free
    network while queues overflow.  The sender guard's bleach heuristic
    (losses with zero marked feedback) exists for exactly this.
    """

    kind = "ecn_bleach"

    def process(self, pkt, pipeline, index, direction):
        if pkt.ce:
            pipeline.record(self)
            pkt.ecn = ECN_ECT0
        return pkt


class OptionStrip(Fault):
    """Remove the PACK feedback option from every matching packet.

    Models a middlebox that drops unknown TCP options: the sender vSwitch
    keeps seeing ACKs but never a feedback report, starving its DCTCP of
    the total/marked counters.  Dedicated FACK packets lose their option
    too and arrive as bare duplicate ACKs.  The guard's feedback-loss
    fallback degrades affected flows to local-signal-only CC.
    """

    kind = "option_strip"

    def process(self, pkt, pipeline, index, direction):
        if (pkt.pack is not None or pkt.int_stack is not None
                or pkt.int_echo is not None):
            pipeline.record(self)
            pkt.pack = None
            pkt.is_fack = False  # without its option it is just a dupack
            # An unknown-option middlebox drops INT metadata the same way.
            pkt.int_stack = None
            pkt.int_echo = None
        return pkt


class VswitchRestart(Fault):
    """Wipe the host's vSwitch soft state at scheduled instants.

    Not a per-packet fault: :meth:`attach` schedules one event per time
    in ``at``, each calling ``restart()`` on whatever vSwitch the host
    holds at that instant.  An instant counts one event only when a
    restart ran: a host without a vSwitch, or with one that has no
    ``restart()`` (``PlainOvs``), counts none.
    """

    kind = "vswitch_restart"

    def __init__(self, at: Sequence[float]):
        super().__init__(0, "both", None)
        self.at = tuple(at)

    def attach(self, chain: "FaultChain") -> None:
        for t in self.at:
            chain.sim.schedule_at(t, self._fire, chain)

    def _fire(self, chain: "FaultChain") -> None:
        restart = getattr(chain.host.vswitch, "restart", None)
        if restart is not None:
            restart()
            chain.record(self)


class WorkerKill:
    """SIGKILL this process at a simulated instant — exactly once.

    Not a packet fault, and never on a host's wire: it models the
    *environment* killing the process running the enforcement stack (the
    OOM killer, a failed deploy, an operator's fat finger).  SIGKILL is
    the honest signal to test with — no handler runs, no destructor
    flushes, whatever was not already on disk is gone.

    Fire-once semantics must survive the death they cause: a restored
    run resumes from a checkpoint taken *before* the kill instant, so
    any in-object "already fired" flag would be resurrected as
    "not fired" and the process would kill itself forever.  The flag
    therefore lives outside the snapshot, as a sentinel file created
    with ``O_EXCL`` immediately before the kill: the resumed incarnation
    sees the sentinel and sails past the kill point.  One sentinel path
    == one kill, however many times the run is restored.

    :class:`~repro.recovery.durable.DurableService` calls
    :meth:`maybe_fire` when the engine reaches ``at``, without
    scheduling an engine event, so the kill leaves no trace in the
    calendar and the interrupted run stays byte-comparable to an
    uninterrupted baseline (the sentinel records it).
    """

    def __init__(self, at: float, sentinel):
        if at < 0:
            raise ValueError("kill time must be >= 0")
        self.at = float(at)
        self.sentinel = Path(sentinel)

    def fired(self) -> bool:
        """Has this kill already happened (in any incarnation)?"""
        return self.sentinel.exists()

    def maybe_fire(self) -> None:
        """Kill the process, unless the sentinel says we already did.

        Returns when the sentinel existed (or another process won the
        O_EXCL race); otherwise never returns.  The sentinel is fsynced
        before the kill so the "already fired" fact itself cannot be
        lost to the crash.
        """
        self.sentinel.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.sentinel,
                         os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return
        with os.fdopen(fd, "w") as fh:
            fh.write("fired\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)


class FaultChain:
    """The ordered fault stages on one host's wire.

    ``faults`` is everything installed, in install order (what
    :func:`fault_counts` totals); ``stages`` the per-packet ones the
    host runs through :meth:`run`.
    """

    def __init__(self, host: "Host"):
        self.host = host
        self.sim = host.sim
        self.faults: List[Fault] = []
        self.stages: List[Fault] = []

    def record(self, fault: Fault) -> None:
        """Count one activation of ``fault`` (the one place a fault is
        counted) and offer it to the decision taps of the host's vSwitch."""
        fault.events += 1
        for tap in getattr(self.host.vswitch, "_on_decision", ()):
            tap("fault.inject", None, WARNING, {"cause": fault.kind, "n": 1})

    def run(self, pkt: Packet, start: int,
            direction: str) -> Optional[Packet]:
        """Run ``pkt`` through the stages from ``start`` on; None when a
        stage consumed it."""
        stages = self.stages
        for i in range(start, len(stages)):
            fault = stages[i]
            if not fault.applies(pkt, direction):
                continue
            pkt = fault.process(pkt, self, i, direction)
            if pkt is None:
                return None
        return pkt

    def resume(self, pkt: Packet, index: int, direction: str) -> None:
        """Re-enter the host's wire at stage ``index`` with a held or
        copied packet: ``wire_out`` on egress, ``receive`` on ingress
        (which counted the packet when it first crossed), so both leave
        through the one exit the in-band path uses."""
        host = self.host
        if direction == "egress":
            host.wire_out(pkt, index)
        else:
            host.receive(pkt, index)


def fault_counts(faults: Sequence[Fault]) -> Dict[str, int]:
    """Per-cause totals of ``faults``' events, causes with none left out."""
    counts: Dict[str, int] = {}
    for fault in faults:
        if fault.events:
            counts[fault.kind] = counts.get(fault.kind, 0) + fault.events
    return counts


def install_faults(host: "Host", faults: Sequence[Fault]) -> FaultChain:
    """Append ``faults`` to ``host``'s fault chain, creating it on first
    use, and return the chain."""
    chain = host.fault_chain
    if chain is None:
        chain = host.fault_chain = FaultChain(host)
    for fault in faults:
        chain.faults.append(fault)
        fault.attach(chain)
    return chain
