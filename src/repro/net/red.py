"""WRED/ECN marking as configured in the paper's evaluation.

For DCTCP the switches mark ECN-capable packets that arrive to an
*instantaneous* queue **exceeding** the threshold K — a hard threshold,
as DCTCP specifies ("the queue length is greater than K", §3.1 of
DCTCP): a packet arriving at occupancy exactly K is *not* marked.  (An
earlier revision marked at exactly K; the off-by-one shifted every
marking onset one arrival early.)  Non-ECT packets hitting the same
WRED profile are **dropped**, which is the ECN-coexistence trap of
Fig. 15/16 (Judd [36], Wu [72]).  Real WRED drops probabilistically
along a ramp rather than at a cliff, so non-ECT drops here follow the
classic profile: probability 0 at K rising linearly to 1 at
``ramp_factor * K``.  (With a cliff, a competing DCTCP flow that parks
the queue exactly at K would give non-ECT packets a strictly-zero
delivery probability — harsher than any testbed measurement.)

A disabled marker (``enabled=False``) reproduces the CUBIC baseline where
WRED/ECN is off and only buffer exhaustion drops packets.

Besides the per-packet :meth:`EcnMarker.decide`, the profile exposes a
**vectorized batch form** (:meth:`EcnMarker.decide_batch`) evaluating the
same thresholds once over an aggregate of arriving bytes.  The fluid
tier (``repro.fluid``) feeds a whole timestep of background arrivals
through it in one call; the batch form is *expected-value* — it returns
mark/drop fractions deterministically instead of drawing per packet — so
the fluid tier stays RNG-free and byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import rng as rng_registry
from .packet import ECN_CE, Packet

#: DCTCP's recommended threshold at 10 Gb/s: 65 full-size 1.5 KB frames.
DEFAULT_K_BYTES = 65 * 1500

#: Non-ECT drop probability reaches 1.0 at ``ramp_factor * K``.  The ramp
#: is sharp: a non-ECT flow competing with DCTCP (which parks the queue at
#: K) must starve, as in Fig. 15a, while its occasional survivors let the
#: Fig. 16 latency measurement exist at all.
DEFAULT_RAMP_FACTOR = 1.25


@dataclass(frozen=True, slots=True)
class MarkDecision:
    """Outcome of passing one arriving packet through the WRED profile
    (immutable: ``decide`` hands out the three shared verdicts below)."""

    drop: bool
    marked: bool


_PASS = MarkDecision(drop=False, marked=False)
_MARK = MarkDecision(drop=False, marked=True)
_DROP = MarkDecision(drop=True, marked=False)


@dataclass
class BatchMarkDecision:
    """Expected-value outcome of a batch of arrivals at one occupancy.

    ``marked_bytes``/``dropped_bytes`` are the expected portions of the
    offered ECT/non-ECT bytes; the fractions are the raw profile values
    (useful for per-class feedback laws).  Batch decisions do **not**
    touch the marker's per-packet counters — batch callers own their own
    byte-based accounting.
    """

    marked_bytes: float
    dropped_bytes: float
    mark_fraction: float
    drop_fraction: float


class EcnMarker:
    """Threshold marker on instantaneous queue occupancy.

    ``decide`` is called at enqueue time with the occupancy *before* the
    packet is admitted (standard arrival-based marking).  A ``marked``
    decision is only a *verdict*: the caller applies it with
    :meth:`commit_mark` once the packet has actually been admitted to the
    buffer.  A real switch's WRED stage likewise cannot mark a packet the
    shared-buffer admission is about to discard — stamping (and counting)
    at decision time would inflate marking stats with packets that never
    carried CE onto the wire.
    """

    def __init__(self, enabled: bool = True,
                 threshold_bytes: int = DEFAULT_K_BYTES,
                 ramp_factor: float = DEFAULT_RAMP_FACTOR,
                 seed: int = 0):
        if threshold_bytes <= 0:
            raise ValueError("marking threshold must be positive")
        if ramp_factor < 1.0:
            raise ValueError("ramp factor must be >= 1")
        self.enabled = enabled
        self.threshold = threshold_bytes
        self.ramp_factor = ramp_factor
        self.marked_packets = 0
        self.dropped_packets = 0
        self._rng = rng_registry.stream(seed, "red.wred-drop")

    def _nonect_drop_probability(self, queue_bytes: int) -> float:
        """Linear WRED ramp for ECN-incapable packets."""
        if queue_bytes <= self.threshold:
            return 0.0
        ramp_top = self.threshold * self.ramp_factor
        if queue_bytes >= ramp_top or ramp_top == self.threshold:
            return 1.0
        return (queue_bytes - self.threshold) / (ramp_top - self.threshold)

    def decide(self, packet: Packet, queue_bytes: int) -> MarkDecision:
        """Apply the profile to ``packet`` arriving at ``queue_bytes``.

        Action starts strictly **above** K (DCTCP marks when the queue
        *exceeds* the threshold); at occupancy exactly K the packet
        passes untouched — and, for non-ECT packets, without an RNG
        draw, so a queue parked at exactly K perturbs nothing.
        """
        if not self.enabled or queue_bytes <= self.threshold:
            return _PASS
        if packet.ect:
            return _MARK
        if self._rng.random() < self._nonect_drop_probability(queue_bytes):
            self.dropped_packets += 1
            return _DROP
        return _PASS

    # -- batch (fluid-tier) form ----------------------------------------
    def mark_fraction(self, queue_bytes: float) -> float:
        """Fraction of ECT bytes marked at this occupancy (0.0 or 1.0:
        DCTCP's hard instantaneous threshold, strict above-K)."""
        if not self.enabled or queue_bytes <= self.threshold:
            return 0.0
        return 1.0

    def decide_batch(self, queue_bytes: float, ect_bytes: float = 0.0,
                     nonect_bytes: float = 0.0) -> BatchMarkDecision:
        """Vectorized WRED over a batch of arrivals at one occupancy.

        One threshold evaluation covers the whole batch — the fluid tier
        pushes an entire timestep of background arrivals through here
        instead of per-packet calls.  Deterministic expected-value: the
        non-ECT ramp contributes its probability as a byte fraction
        rather than a drawn outcome, so batch decisions never consume
        the WRED RNG stream (packet-tier draws are unperturbed).
        """
        mark_frac = self.mark_fraction(queue_bytes)
        drop_frac = (self._nonect_drop_probability(queue_bytes)
                     if self.enabled else 0.0)
        return BatchMarkDecision(
            marked_bytes=ect_bytes * mark_frac,
            dropped_bytes=nonect_bytes * drop_frac,
            mark_fraction=mark_frac,
            drop_fraction=drop_frac,
        )

    def commit_mark(self, packet: Packet) -> None:
        """Stamp CE on an *admitted* packet whose decision was ``marked``."""
        packet.ecn = ECN_CE
        self.marked_packets += 1

    def snapshot(self) -> dict:
        """Counters in metric-source shape (see repro.obs)."""
        return {"marked_packets": self.marked_packets,
                "dropped_packets": self.dropped_packets}
