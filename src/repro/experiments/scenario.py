"""A run as a value (DESIGN.md §4, "How a run is assembled").

A :class:`Scenario` holds everything that changes a run's simulated
results and nothing else.  It is frozen, picklable and hashable; its
canonical JSON is its identity, so equal Scenarios have one
:meth:`~Scenario.key` — what a result cache and a ``RunSpec`` carry.
Observers ride beside it in :class:`~repro.experiments.common.Taps`.
Hosts are named as the topology builder names them (``s1``/``r1`` on
the dumbbell, ``h1``… on the star, ``recv`` on the parking lot).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

from .common import DATA_PORT, MICRO_RATE

if TYPE_CHECKING:  # pragma: no cover
    from ..core import AcdcConfig, FlowPolicy
    from ..guard import GuardConfig
    from ..workloads.background import BackgroundFlowGroup
    from .common import Scheme


@dataclass(frozen=True)
class Flow:
    """One iperf-style bulk flow ``src -> dst:port`` and its guest stack.

    ``size=None`` sends until ``stop``; ``send_at`` holds the data phase
    of an established connection (the incast storm).  ``ignore_rwnd=None``
    leaves it to the host's tenant profile.  ``ack_division`` is the
    listener's: flows sharing a ``dst:port`` share its first listener.
    """

    src: str
    dst: str
    port: int = DATA_PORT
    cc: str = "cubic"
    ecn: bool = False
    start: float = 0.0
    send_at: Optional[float] = None
    stop: Optional[float] = None
    pacing_rate_bps: Optional[float] = None
    max_cwnd: Optional[int] = None
    size: Optional[int] = None
    min_cwnd_mss: Optional[int] = None
    ignore_rwnd: Optional[bool] = None
    ack_division: Optional[int] = None

    @classmethod
    def of(cls, scheme: "Scheme", src: str, dst: str, port: int = DATA_PORT,
           **kwargs) -> "Flow":
        """A flow under the scheme's guest stack."""
        return cls(src, dst, port, scheme.host_cc, scheme.host_ecn, **kwargs)

    def conn_opts(self) -> dict:
        """The guest connection's options (only those set)."""
        opts = {name: value for name in _GUEST
                if (value := getattr(self, name)) is not None}
        if self.min_cwnd_mss is not None:
            opts["cc_kwargs"] = {"min_cwnd_mss": self.min_cwnd_mss}
        return {"cc": self.cc, "ecn": self.ecn, **opts}


#: Flow fields that are guest connection options of the same name.
_GUEST = ("pacing_rate_bps", "max_cwnd", "ignore_rwnd")


@dataclass(frozen=True)
class Probe:
    """RTT probe ``src -> dst`` under the scheme's guest stack."""

    src: str
    dst: str
    interval: float
    warmup: float
    pipelined: bool = False


@dataclass(frozen=True)
class FluidCoupling:
    """The fluid tier's background ``groups`` at one switch port, stepped
    from ``start`` (no groups: the inert coupling, DESIGN.md §15)."""

    switch: str
    port: int
    groups: Tuple["BackgroundFlowGroup", ...]
    start: float


@dataclass(frozen=True, eq=False)
class Scenario:
    """One run: a ``topology`` builder (``dumbbell``, ``parking_lot``,
    ``star`` or ``"module:function"``) called with ``size`` first, the
    traffic on it, and the datapath configuration.

    Throughputs average over ``[measure_from, duration]``; ``meters``
    adds a per-flow throughput meter.  ``policy``/``rules`` make one rule
    table shared by every AC/DC vSwitch (neither: each keeps its own);
    ``guards`` pairs a host name with its Guard's config.
    """

    scheme: "Scheme"
    topology: str
    size: int
    duration: float
    rate_bps: float = MICRO_RATE
    mtu: int = 9000
    seed: int = 0
    measure_from: float = 0.0
    flows: Tuple[Flow, ...] = ()
    probe: Optional[Probe] = None
    meters: bool = False
    fluid: Optional[FluidCoupling] = None
    acdc: Optional["AcdcConfig"] = None
    policy: Optional["FlowPolicy"] = None
    rules: Tuple[Tuple[Any, "FlowPolicy"], ...] = ()
    guards: Tuple[Tuple[str, "GuardConfig"], ...] = ()

    def __post_init__(self) -> None:
        if not self.duration > 0.0:
            raise ValueError(f"duration {self.duration!r} is not positive")
        if not 0.0 <= self.measure_from < self.duration:
            raise ValueError(f"measure_from {self.measure_from!r} is outside "
                             f"[0, {self.duration!r})")

    def to_json(self) -> dict:
        """Plain JSON: each dataclass tagged with its import path."""
        return _encode(self)

    @staticmethod
    def from_json(data: dict) -> "Scenario":
        return _decode(data)

    def canonical(self) -> str:
        from ..runtime.spec import canonical_json
        return canonical_json(self.to_json())

    def key(self) -> str:
        """sha256 of the canonical JSON (hashlib is imported on use)."""
        import hashlib
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


def _encode(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {"@": f"{cls.__module__}:{cls.__qualname__}",
                **{f.name: _encode(getattr(value, f.name))
                   for f in fields(value)}}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"a Scenario holds plain values and dataclasses, "
                    f"not {type(value).__name__}")


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_decode(v) for v in value)
    if not isinstance(value, dict):
        return value
    from ..runtime.spec import resolve
    ref = value["@"]
    if not ref.startswith("repro."):
        raise ValueError(f"refusing to build {ref!r}")
    return resolve(ref)(**{k: _decode(v) for k, v in value.items()
                           if k != "@"})
