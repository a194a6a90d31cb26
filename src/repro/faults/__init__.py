"""Composable, deterministic fault injection on a host's wire.

Robustness claims are only as good as the failure modes they were tested
against.  This package provides seeded fault injectors that sit on a
host's wire, between its vSwitch and its NIC, without the vSwitch or the
guest knowing they are being tortured:

* :class:`PacketLoss` — random drops;
* :class:`Corruption` — bit corruption with checksum-drop semantics (a
  corrupted packet fails the receiver NIC's checksum and is discarded,
  but is accounted under its own cause);
* :class:`Duplication` — the packet and an identical copy both proceed;
* :class:`Reordering` — the packet is held back for a bounded interval
  and re-emitted behind later traffic;
* :class:`DelayJitter` — bounded random per-packet delay;
* :class:`LinkFlap` — a periodic down-schedule during which everything
  matching is dropped;
* :class:`VswitchRestart` — wipes the host's AC/DC vSwitch flow
  table mid-run (the recovery path under test in §4's soft-state
  design);
* :class:`EcnBleach` — rewrites CE marks back to ECT before the
  receiver module counts them (adversarial receiver / broken middlebox);
* :class:`OptionStrip` — removes PACK/FACK feedback options (and INT
  metadata) in transit (option-dropping middlebox; exercises the
  guard's feedback-loss fallback);
* :class:`WorkerKill` — SIGKILLs the process running the run at a
  simulated instant, exactly once across restarts (sentinel-file
  discipline); not on any wire, :class:`~repro.recovery.DurableService`
  fires it, and the crash-recovery path of :mod:`repro.recovery` is the
  subsystem under test.

:func:`install_faults` appends faults, in order, to the host's one
:class:`FaultChain`, which every wire packet crosses once per direction
(guest packets and the FACKs the vSwitch injects alike).  Every
injector draws from its own named stream of
:class:`~repro.sim.rng.RngFactory`, so the same seed reproduces the
exact same fault sequence.  Each activation bumps the injector's
``events`` and is one ``fault.inject`` decision of the host's vSwitch
(:meth:`FaultChain.record`); :func:`fault_counts` totals per cause.
"""

from .injectors import (
    Corruption,
    DelayJitter,
    Duplication,
    EcnBleach,
    Fault,
    LinkFlap,
    OptionStrip,
    PacketLoss,
    Reordering,
    VswitchRestart,
    WorkerKill,
    fault_counts,
    install_faults,
)

__all__ = [
    "Corruption",
    "DelayJitter",
    "Duplication",
    "EcnBleach",
    "Fault",
    "LinkFlap",
    "OptionStrip",
    "PacketLoss",
    "Reordering",
    "VswitchRestart",
    "WorkerKill",
    "fault_counts",
    "install_faults",
]
