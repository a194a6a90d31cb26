"""Service mode: the AC/DC datapath as a long-lived, mutable service.

A :class:`Service` runs an open-loop arriving workload (seeded Poisson
message arrivals over persistent connections, §5.2-style) on a star of
AC/DC hosts, carved into fixed virtual-time *epochs*.  Between epochs —
and only between epochs — the :class:`ControlPlane` drains its command
queue in deterministic ``(epoch, seq)`` order.  Commands mutate the
live datapath:

* ``set_policy``   — hot-swap per-tenant policy (algorithm / beta /
  RWND clamp); existing flows are *migrated* in place, never restarted;
* ``set_guard``    — hot-reload guard thresholds (all-or-nothing across
  the named hosts);
* ``kill_switch``  — revert every host to the boot configuration
  (``default_policy`` and the guards' construction-time thresholds) in
  one epoch.

Because command application is pinned to epoch boundaries, the sequence
of simulator events between any two boundaries is a pure function of
(config, schedule, seed): replaying the same schedule — serially, via
the process pool, or from the result cache — produces a byte-identical
result (DESIGN.md §10 extended to mid-run mutation; §12 for the control
plane itself).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..core import AcdcVswitch, FlowPolicy
from ..experiments.common import ACDC, Taps, Testbed
from ..experiments.scenario import Scenario
from ..faults import Fault, fault_counts, install_faults
from ..guard import Guard, GuardConfig
from ..metrics.collectors import FctRecorder
from ..metrics.stats import percentile
from ..obs import IntTelemetry, ObsContext, TraceConfig, WARNING
from ..runtime.spec import canonical_json
from ..sim.rng import RngFactory
from ..workloads.apps import MessageStream, Sink
from .commands import CommandError, command_shape, parse_policy

#: Port every service sink listens on.
SERVICE_PORT = 5001


@dataclass
class ServiceConfig:
    """One service run, fully described by plain JSON values."""

    n_hosts: int = 8
    epoch_s: float = 0.02
    rate_bps: float = 1e9
    mtu: int = 1500
    seed: int = 0
    #: Mean message arrivals per host per second (open loop, Poisson).
    arrival_rate_hz: float = 400.0
    #: Message size mix (bytes) and integer weights.
    msg_sizes: List[int] = field(default_factory=lambda: [16_384, 65_536,
                                                          262_144])
    msg_weights: List[int] = field(default_factory=lambda: [6, 3, 1])
    #: Persistent streams per host (to its next ``peers`` ring neighbours).
    peers: int = 3
    #: Attach a repro.guard.Guard to every vSwitch.
    guard: bool = False
    #: Default tenant policy JSON (see repro.control.commands.parse_policy).
    default_policy: Optional[dict] = None
    #: In-band network telemetry (repro.obs.int): stamp per-hop metadata
    #: at the switch; epoch reports aggregate per-hop queue depth.
    int_telemetry: bool = False
    #: Chaos: put a fault chain of this intensity on the first host's
    #: wire (0 disables; see repro.experiments.chaos.fault_chain).
    fault_intensity: float = 0.0
    #: Adversarial tenants: the first N hosts' guests ignore RWND.
    adversarial_hosts: int = 0

    def __post_init__(self) -> None:
        if self.n_hosts < 2:
            raise ValueError("a service needs at least 2 hosts")
        if self.epoch_s <= 0 or self.arrival_rate_hz <= 0:
            raise ValueError("epoch_s and arrival_rate_hz must be positive")
        if not (1 <= self.peers < self.n_hosts):
            raise ValueError("peers must be in [1, n_hosts)")
        if len(self.msg_sizes) != len(self.msg_weights) or not self.msg_sizes:
            raise ValueError("msg_sizes and msg_weights must match, non-empty")
        if self.adversarial_hosts > self.n_hosts:
            raise ValueError("more adversarial hosts than hosts")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def guard_config(self) -> GuardConfig:
        """Every guard's construction-time config (the kill switch's
        target for the mutable thresholds)."""
        return GuardConfig(seed=self.seed)


@dataclass
class CohortSample:
    """One epoch of the whole fleet: FCTs plus counter deltas."""

    hosts: int
    fcts: List[float] = field(default_factory=list)
    arrivals: int = 0
    packets_egress: int = 0
    ecn_marks: int = 0
    escalations: int = 0
    drops: int = 0
    #: Per-report bottleneck queue-depth samples (bytes) from the INT
    #: telemetry views this epoch; empty when INT is off.
    queue_depths: List[float] = field(default_factory=list)

    @property
    def p99(self) -> Optional[float]:
        return _p99(self.fcts)

    @property
    def queue_p99(self) -> Optional[float]:
        return _p99(self.queue_depths)

    def to_json(self) -> dict:
        """Epoch-report form: aggregates only, never the raw FCT list."""
        return {
            "hosts": self.hosts,
            "completed": len(self.fcts),
            "arrivals": self.arrivals,
            "p99_fct": self.p99,
            "packets_egress": self.packets_egress,
            "ecn_marks": self.ecn_marks,
            "escalations": self.escalations,
            "drops": self.drops,
            "queue_samples": len(self.queue_depths),
            "queue_p99_bytes": self.queue_p99,
        }


def _p99(samples: List[float]) -> Optional[float]:
    return percentile(samples, 99) if samples else None


class _OpenLoopWorkload:
    """Seeded Poisson message arrivals over persistent MessageStreams.

    Each host holds one stream to each of its ``peers`` ring neighbours;
    arrivals pick a stream and a size from the host's own named RNG
    stream, so adding hosts or reordering construction never perturbs
    another host's arrival process.  FCT records are labelled
    ``"src>dst"`` so per-host FCTs belong to the *sending* host.
    """

    def __init__(self, service: "Service"):
        sim, config = service.sim, service.config
        hosts = service.hosts
        self.sim = sim
        self.config = config
        self.recorder = FctRecorder()
        self.arrivals: Dict[str, int] = {h.addr: 0 for h in hosts}
        conn_opts = ACDC.conn_opts()
        sinks = {h.addr: Sink(h, SERVICE_PORT, **conn_opts) for h in hosts}
        self.streams: Dict[str, List[MessageStream]] = {}
        n = len(hosts)
        for i, src in enumerate(hosts):
            streams = []
            for j in range(1, config.peers + 1):
                dst = hosts[(i + j) % n]
                streams.append(MessageStream(
                    sim, src, dst.addr, SERVICE_PORT, sinks[dst.addr],
                    self.recorder, label=f"{src.addr}>{dst.addr}",
                    conn_opts=dict(conn_opts)))
            self.streams[src.addr] = streams
            rng = service.rngs.stream(f"service.arrivals.{src.addr}")
            # Scheduled as a bound method with args (no lambdas): every
            # pending arrival event must pickle for checkpoint/restore.
            sim.schedule(rng.expovariate(config.arrival_rate_hz),
                         self._arrive, src.addr, rng)

    def _arrive(self, addr: str, rng) -> None:
        stream = self.streams[addr][rng.randrange(len(self.streams[addr]))]
        size = rng.choices(self.config.msg_sizes,
                           weights=self.config.msg_weights)[0]
        stream.send_message(size)
        self.arrivals[addr] += 1
        self.sim.schedule(rng.expovariate(self.config.arrival_rate_hz),
                          self._arrive, addr, rng)


class ControlPlane:
    """Declarative intended state + the epoch-boundary command queue.

    The plane owns the one piece of state the datapath cannot
    reconstruct: the *intended* per-host
    :class:`~repro.core.policy.FlowPolicy`.  What
    the kill switch restores — the boot configuration — is derived from
    the :class:`ServiceConfig`, so nothing else is kept.  Every command
    application is all-or-nothing: validation for every named host
    completes before the first host is touched, and a rejection records
    the reason and applies nothing.
    """

    def __init__(self, service: "Service"):
        self.service = service
        self.default_policy = service.default_policy
        self.intended: Dict[str, FlowPolicy] = {
            addr: service.default_policy for addr in service.vswitches}
        self.log: List[dict] = []
        self._queue: List[tuple] = []
        self._seq = 0
        #: Total submit() calls, shape-rejected ones included — the WAL
        #: replay cursor for repro.recovery (a rejection is a visible
        #: side effect too: it lands in the log and on the trace bus).
        self.submitted = 0

    # -- queue --------------------------------------------------------------
    def submit(self, raw: object) -> None:
        """Enqueue one command dict for its epoch boundary.

        Commands whose *shape* is unparseable (not a dict, bad epoch,
        unknown op) cannot be placed in the queue at all; they are
        rejected immediately into the log."""
        self.submitted += 1
        try:
            epoch, op = command_shape(raw)
        except CommandError as exc:
            self._record(None, raw, "rejected", reason=str(exc))
            return
        self._queue.append((epoch, self._seq, raw))
        self._seq += 1

    def drain(self, epoch: int) -> List[dict]:
        """Apply every command due at or before ``epoch``, in
        deterministic (epoch, seq) order."""
        due = sorted([q for q in self._queue if q[0] <= epoch])
        self._queue = [q for q in self._queue if q[0] > epoch]
        outcomes = []
        for _ep, _seq, raw in due:
            outcomes.append(self._apply(epoch, raw))
        return outcomes

    def _apply(self, epoch: int, raw: dict) -> dict:
        op = raw["op"]
        try:
            handler = getattr(self, f"_op_{op}")
            detail = handler(epoch, raw)
            return self._record(epoch, raw, "applied", **(detail or {}))
        except CommandError as exc:
            return self._record(epoch, raw, "rejected", reason=str(exc))

    def _record(self, epoch, raw, status: str, **detail) -> dict:
        entry = {"epoch": epoch, "op": raw.get("op") if isinstance(raw, dict)
                 else None, "status": status, "command": raw, **detail}
        self.log.append(entry)
        extra = {"reason": detail["reason"]} if "reason" in detail else {}
        if status == "rejected":
            extra["severity"] = WARNING
        self.service.obs.bus.emit("control.command", component="control",
                                  op=str(entry["op"]), status=status, **extra)
        return entry

    # -- shared validation helpers ------------------------------------------
    def _check_keys(self, raw: dict, allowed: set) -> None:
        unknown = set(raw) - allowed - {"epoch", "op"}
        if unknown:
            raise CommandError(f"unknown field(s) {sorted(unknown)!r} "
                               f"for op {raw['op']!r}")

    def _resolve_hosts(self, raw: dict) -> List[str]:
        known = sorted(self.intended)
        hosts = raw.get("hosts", "all")
        if hosts == "all":
            return known
        if not isinstance(hosts, list) or not hosts:
            raise CommandError("hosts must be \"all\" or a non-empty list")
        odd = [h for h in hosts if not isinstance(h, str)]
        if odd:
            raise CommandError(f"host names must be strings, got {odd!r}")
        bad = [h for h in hosts if h not in self.intended]
        if bad:
            raise CommandError(f"unknown host(s) {bad!r}")
        return sorted(set(hosts))

    def _set_host_policy(self, addr: str, policy: FlowPolicy) -> int:
        self.intended[addr] = policy
        return self.service.vswitches[addr].apply_policy(policy)

    # -- op handlers ----------------------------------------------------
    def _op_set_policy(self, epoch: int, raw: dict) -> dict:
        self._check_keys(raw, {"hosts", "policy"})
        if "policy" not in raw:
            raise CommandError("set_policy requires a policy object")
        policy = parse_policy(raw["policy"])
        addrs = self._resolve_hosts(raw)
        migrated = sum(self._set_host_policy(a, policy) for a in addrs)
        return {"hosts": addrs, "migrated": migrated}

    def _op_set_guard(self, epoch: int, raw: dict) -> dict:
        self._check_keys(raw, {"hosts", "params"})
        if not self.service.guards:
            raise CommandError("guard is not enabled on this service")
        params = raw.get("params")
        if not isinstance(params, dict) or not params:
            raise CommandError("set_guard requires a non-empty params object")
        addrs = self._resolve_hosts(raw)
        # Pass 1: validate against every target guard; pass 2: apply.
        for addr in addrs:
            try:
                self.service.guards[addr].check(**params)
            except (ValueError, TypeError) as exc:
                raise CommandError(f"invalid guard params for {addr}: "
                                   f"{exc}") from exc
        for addr in addrs:
            self.service.guards[addr].reconfigure(**params)
        return {"hosts": addrs, "params": params}

    def _op_kill_switch(self, epoch: int, raw: dict) -> dict:
        self._check_keys(raw, set())
        migrated = sum(self._set_host_policy(addr, self.default_policy)
                       for addr in self.intended)
        boot = dataclasses.asdict(self.service.config.guard_config())
        for name in Guard.IMMUTABLE_FIELDS:
            del boot[name]
        for guard in self.service.guards.values():
            guard.reconfigure(**boot)
        hosts = sorted(self.intended)
        self.service.obs.bus.emit(
            "control.rollback", component="control", severity=WARNING,
            reason="kill_switch", hosts=hosts)
        return {"hosts": hosts, "migrated": migrated}


class Service:
    """One long-lived service run: workload + datapath + control plane."""

    def __init__(self, config: ServiceConfig,
                 schedule: Optional[List[dict]] = None):
        self.config = config
        self.rngs = RngFactory(config.seed)
        self.default_policy = parse_policy(config.default_policy or {})
        guards = tuple((f"h{i + 1}", config.guard_config())
                       for i in range(config.n_hosts)) if config.guard else ()
        # The service slices the simulation itself, one epoch at a time.
        tb = Testbed(
            Scenario(ACDC, "star", config.n_hosts, config.epoch_s,
                     config.rate_bps, config.mtu, config.seed,
                     guards=guards),
            Taps(obs=ObsContext(config=TraceConfig(sample={
                "ecn.mark": 64, "rwnd.rewrite": 64})),
                int_tel=IntTelemetry() if config.int_telemetry else None))
        self.sim, self.obs, self.topo = tb.sim, tb.obs, tb.topology
        self.hosts, self.switch = tb.parts
        self.guards: Dict[str, Guard] = tb.guards
        self.vswitches: Dict[str, AcdcVswitch] = tb.vswitches
        self.int_tel: Optional[IntTelemetry] = tb.int_tel
        # Every vSwitch was built with a PolicyEngine of its own: the
        # control plane swaps each host's *default* policy independently.
        for vsw in self.vswitches.values():
            vsw.apply_policy(self.default_policy)
        # Per-flow read cursor into TelemetryView.q_samples (epoch deltas).
        self._prev_q_idx: Dict[tuple, int] = {}
        for i in range(config.adversarial_hosts):
            self.hosts[i].set_tenant_profile(ignore_rwnd=True)
        #: The fault chain on the first host's wire (empty: no faults).
        self.faults: List[Fault] = []
        if config.fault_intensity > 0:
            from ..experiments.chaos import fault_chain
            self.faults = fault_chain(config.fault_intensity, config.seed)
            install_faults(self.hosts[0], self.faults)
        self.workload = _OpenLoopWorkload(self)
        self.control = ControlPlane(self)
        for raw in schedule or []:
            self.control.submit(raw)
        self._prev_counters = self._counters_now()
        self._prev_arrivals = dict(self.workload.arrivals)
        self._prev_t = 0.0
        #: Closed-epoch reports so far (lives on the service, not in a
        #: run() local, so a checkpointed service resumes mid-sequence).
        self.reports: List[dict] = []
        self.epochs_run = 0

    # ------------------------------------------------------------------
    def _counters_now(self) -> Dict[str, dict]:
        out = {}
        for addr, vsw in self.vswitches.items():
            guard = self.guards.get(addr)
            esc = drops = 0
            if guard is not None:
                esc = sum(1 for row in guard.events
                          if row[1] == "guard.escalate")
                drops = guard.police_drops + guard.quarantine_drops
            out[addr] = {
                "packets_egress": vsw.ops.packets_egress,
                "ecn_marks": vsw.ops.snapshot().get("ecn_mark", 0),
                "escalations": esc,
                "drops": drops + vsw.policer.drops,
            }
        return out

    def _drain_queue_samples(self) -> List[float]:
        """New INT bottleneck queue-depth samples since the last epoch.
        Empty when INT is off."""
        out: List[float] = []
        tel = self.int_tel
        if tel is None:
            return out
        for key, view in tel.views().items():
            samples = view.q_samples
            out.extend(samples[self._prev_q_idx.get(key, 0):])
            self._prev_q_idx[key] = len(samples)
        return out

    def _close_epoch(self, epoch: int, t_end: float) -> dict:
        now = self._counters_now()
        sample = CohortSample(hosts=len(now))
        for addr, counters in now.items():
            delta = {k: v - self._prev_counters[addr][k]
                     for k, v in counters.items()}
            sample.packets_egress += delta["packets_egress"]
            sample.ecn_marks += delta["ecn_marks"]
            sample.escalations += delta["escalations"]
            sample.drops += delta["drops"]
            sample.arrivals += (self.workload.arrivals[addr]
                                - self._prev_arrivals[addr])
        sample.fcts = [
            record.fct for record in self.workload.recorder.records
            if record.end is not None and self._prev_t < record.end <= t_end]
        sample.queue_depths = self._drain_queue_samples()
        report = {"epoch": epoch, "t_end": t_end,
                  "cohorts": {"all": sample.to_json()},
                  "commands": self.control.drain(epoch)}
        self._prev_counters = self._counters_now()
        self._prev_arrivals = dict(self.workload.arrivals)
        self._prev_t = t_end
        return report

    # ------------------------------------------------------------------
    @property
    def next_epoch_end(self) -> float:
        """Virtual end time of the epoch currently open."""
        return (self.epochs_run + 1) * self.config.epoch_s

    def run_epoch(self) -> dict:
        """Run exactly one epoch to its boundary and close it.

        The incremental unit `repro.recovery` snapshots between: after
        ``run_epoch`` returns, the simulator sits exactly at an epoch
        boundary with the boundary's commands already drained, so the
        events of the next epoch are a pure function of the (restorable)
        service state.
        """
        t_end = self.next_epoch_end
        self.sim.run(until=t_end)
        report = self._close_epoch(self.epochs_run, t_end)
        self.reports.append(report)
        self.epochs_run += 1
        return report

    def run(self, epochs: int) -> dict:
        """Run ``epochs`` further epochs; returns the canonical result."""
        if epochs < 1:
            raise ValueError("at least one epoch")
        for _ in range(epochs):
            self.run_epoch()
        return self.result()

    def result(self) -> dict:
        """The canonical service result for the epochs run so far."""
        return self._result(self.reports)

    def _result(self, reports: List[dict]) -> dict:
        recorder = self.workload.recorder
        addrs = sorted(self.vswitches)
        per_host: Dict[str, dict] = {}
        fleet: List[float] = []
        for addr in addrs:
            fcts = recorder.fcts(label_prefix=f"{addr}>")
            fleet.extend(fcts)
            per_host[addr] = {"completed": len(fcts), "p99": _p99(fcts)}
        cohorts = {"all": {"hosts": addrs, "completed": len(fleet),
                           "p99": _p99(fleet)}}
        counters = {
            "migrations": sum(v.ops.snapshot().get("flow_migrate", 0)
                              for v in self.vswitches.values()),
            "restarts": sum(v.restarts for v in self.vswitches.values()),
            "resurrections": sum(v.resurrections
                                 for v in self.vswitches.values()),
            "policer_drops": sum(v.policer.drops
                                 for v in self.vswitches.values()),
            "arrivals": sum(self.workload.arrivals.values()),
            "completed": len(recorder.completed()),
        }
        signature = hashlib.sha256(
            canonical_json(self.obs.bus.records()).encode()).hexdigest()
        return {
            "config": self.config.to_json(),
            "epochs": reports,
            "commands": self.control.log,
            "policies": {a: dataclasses.asdict(p)
                         for a, p in self.control.intended.items()},
            "fct": {"per_host": per_host, "cohorts": cohorts},
            "counters": counters,
            "int": (self.int_tel.snapshot()
                    if self.int_tel is not None else None),
            "faults": fault_counts(self.faults),
            "trace": self.obs.bus.summary(),
            "signature": signature,
        }


def service_cell(config: dict, schedule: Optional[list] = None,
                 epochs: int = 6) -> dict:
    """Process-pool cell: one service run from plain-JSON arguments
    (referenced by run specs as ``repro.control.service:service_cell``)."""
    return Service(ServiceConfig(**config), schedule or []).run(epochs)
