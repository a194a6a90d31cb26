"""Per-flow policy: which congestion control a flow gets (§3.4).

Administrators assign congestion control per flow: datacenter-internal
flows to DCTCP, WAN flows to an untouched host stack, flows of different
service classes to different priority betas, and individual flows to
bandwidth caps (an RWND clamp).  The :class:`PolicyEngine` evaluates a
rule list against the 5-tuple at flow setup, falling back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..net.packet import FlowKey
from .priority import validate_beta


#: Algorithms the vSwitch can enforce (see repro.core.vswitch_cc), plus
#: "none" for full passthrough (the flow is left to the host stack).
ENFORCEABLE_ALGORITHMS = ("dctcp", "reno", "cubic")


@dataclass
class FlowPolicy:
    """What AC/DC should do with one flow.

    ``algorithm`` names the congestion control the vSwitch enforces —
    ``"dctcp"`` (the paper's deployment), ``"reno"`` or ``"cubic"``
    (canonical schemes per §3.1/§3.4, e.g. for WAN-bound flows) — or
    ``"none"`` to leave the flow entirely to the host stack.  ``beta``
    is the Equation 1 priority (DCTCP only); ``max_rwnd`` an optional
    bandwidth-cap clamp in bytes.
    """

    algorithm: str = "dctcp"
    beta: float = 1.0
    max_rwnd: Optional[int] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ENFORCEABLE_ALGORITHMS + ("none",):
            raise ValueError(f"unsupported vSwitch algorithm {self.algorithm!r}")
        validate_beta(self.beta)
        if self.max_rwnd is not None and self.max_rwnd <= 0:
            raise ValueError("max_rwnd must be positive")

    @property
    def enforced(self) -> bool:
        return self.algorithm != "none"


Matcher = Callable[[FlowKey], bool]


@dataclass(frozen=True)
class FieldMatcher:
    """Picklable flow-key matcher on one 5-tuple position.

    Matchers used to be lambdas; rule tables sit inside live services
    whose whole object graph is pickled by checkpoint/restore
    (repro.recovery), and lambdas cannot be pickled.  ``remove_rule``
    matches by object identity, so each call site still holds (and
    removes by) the exact instance it registered.
    """

    index: int
    value: object

    def __call__(self, key: FlowKey) -> bool:
        return key[self.index] == self.value


@dataclass(frozen=True)
class FlowMatcher:
    """Exact 5-tuple match (per-flow penalty rules)."""

    flow: FlowKey

    def __call__(self, key: FlowKey) -> bool:
        return key == self.flow


@dataclass(frozen=True)
class DstPrefixMatcher:
    """Crude 'subnet' matcher on the destination address string."""

    prefix: str

    def __call__(self, key: FlowKey) -> bool:
        return key[2].startswith(self.prefix)


class PolicyEngine:
    """First-match rule table over flow 5-tuples."""

    def __init__(self, default: Optional[FlowPolicy] = None,
                 rules: Sequence[Tuple[Matcher, FlowPolicy]] = ()):
        self.default = default if default is not None else FlowPolicy()
        self._rules: List[Tuple[Matcher, FlowPolicy]] = list(rules)

    @property
    def rules(self) -> Tuple[Tuple[Matcher, FlowPolicy], ...]:
        """The rule table, first match first."""
        return tuple(self._rules)

    def add_rule(self, matcher: Matcher, policy: FlowPolicy) -> None:
        """Append a rule; earlier rules win."""
        self._rules.append((matcher, policy))

    def insert_rule(self, matcher: Matcher, policy: FlowPolicy) -> None:
        """Prepend a rule so it takes precedence over everything existing
        (used by the guard's penalty clamps, which must override even an
        administrator rule for the same flow)."""
        self._rules.insert(0, (matcher, policy))

    def remove_rule(self, matcher: Matcher) -> bool:
        """Remove the rule registered under this exact matcher object."""
        for i, (m, _) in enumerate(self._rules):
            if m is matcher:
                del self._rules[i]
                return True
        return False

    def policy_for(self, key: FlowKey) -> FlowPolicy:
        for matcher, policy in self._rules:
            if matcher(key):
                return policy
        return self.default

    # -- convenience matchers -------------------------------------------------
    @staticmethod
    def match_dst(dst: str) -> Matcher:
        return FieldMatcher(2, dst)

    @staticmethod
    def match_src(src: str) -> Matcher:
        return FieldMatcher(0, src)

    @staticmethod
    def match_dport(dport: int) -> Matcher:
        return FieldMatcher(3, dport)

    @staticmethod
    def match_flow(flow: FlowKey) -> Matcher:
        """Exact 5-tuple match (per-flow penalty rules)."""
        return FlowMatcher(flow)

    @staticmethod
    def match_dst_prefix(prefix: str) -> Matcher:
        """Crude 'subnet' matcher on the address string — enough to split
        WAN-bound from datacenter-internal traffic in the examples."""
        return DstPrefixMatcher(prefix)
