"""Datapath operation accounting.

The paper measures AC/DC's CPU cost with ``sar`` on a real host (Fig. 11
and 12).  In simulation we instead *count the operations the datapath
actually performs* — flow-table lookups, sequence updates, header
rewrites, checksum recalculations, PACK attachment, congestion-control
updates — and let :mod:`repro.metrics.cpu_model` convert counts into a CPU
utilisation estimate.  Both the plain-OVS baseline and AC/DC record into
the same counter vocabulary so the *difference* is exactly the extra work
AC/DC adds per packet.
"""

from __future__ import annotations

from typing import Dict

#: Canonical operation names (anything else raises, to catch typos).
OPS = frozenset({
    "flow_lookup",        # hash-table lookup (every packet, baseline too)
    "flow_insert",        # SYN handling
    "flow_resurrect",     # mid-flow entry rebuild after state loss
    "flow_migrate",       # live policy migration (repro.control)
    "flow_remove",        # FIN/GC
    "seq_update",         # conntrack snd_nxt/snd_una maintenance
    "ecn_mark",           # egress ECT marking
    "ecn_strip",          # ingress CE/ECE scrubbing
    "counters_update",    # receiver-module total/marked byte counters
    "pack_attach",        # PACK option insertion
    "fack_create",        # dedicated feedback packet
    "feedback_extract",   # PACK/FACK consumption at the sender module
    "cc_update",          # Fig. 5 congestion-control execution
    "rwnd_rewrite",       # enforcement memcpy
    "policing_check",     # non-conforming flow policing
    "checksum_recalc",    # IP checksum after any header change
    "forward",            # baseline OVS forwarding action
})


class OpsCounter:
    """Named counters for datapath work, split by direction.

    The per-packet datapath bumps ``ops.counts["flow_lookup"] += 1``
    itself; cold callers use :meth:`record`.  Either way a name outside
    :data:`OPS` raises ``KeyError``.
    """

    def __init__(self) -> None:
        # Pre-seeded (sorted: hash-seed independent): a bump of a name
        # that is not an op finds no key.
        self.counts: Dict[str, int] = dict.fromkeys(sorted(OPS), 0)
        self.packets_egress = 0
        self.packets_ingress = 0

    def record(self, op: str, n: int = 1) -> None:
        self.counts[op] += n  # KeyError: not a datapath op (see OPS)

    def snapshot(self) -> Dict[str, int]:
        """Ops that happened at least once (zero entries dropped)."""
        return {op: n for op, n in self.counts.items() if n}

    def total(self) -> int:
        return sum(self.counts.values())

    def reset(self) -> None:
        self.counts.update(dict.fromkeys(OPS, 0))
        self.packets_egress = 0
        self.packets_ingress = 0
