"""Game day: faults x adversarial tenant x sanitizer x pool runtime,
composed in one service run that must complete cleanly."""

from repro.analysis import sanitize
from repro.control.service import Service
from repro.experiments.gameday import gameday_cell, run
from repro.runtime import Runtime, is_cell_error


def test_gameday_completes_cleanly_and_deterministically():
    # Two seeds through the pool runtime: the sanitizer is armed inside
    # each cell, so a datapath invariant violation would raise
    # InvariantViolation out of run(...) here, not pass silently.
    rt = Runtime(jobs=2)
    result = run(quick=True, seeds=[0, 1], runtime=rt)
    for per_seed in result["per_seed"]:
        assert not is_cell_error(per_seed)
        inner = per_seed["result"]
        # Chaos actually happened and the control plane actually acted.
        assert sum(inner["faults"].values()) > 0
        assert per_seed["commands_rejected"] == 1  # the malformed one
        assert per_seed["commands_applied"] == 3
        assert inner["counters"]["completed"] > 0
    # Stable event signature: a serial re-run of the same cell produces
    # the identical trace hash the pooled run produced.
    serial = gameday_cell(seed=0, epochs=4, n_hosts=4)
    assert serial["signature"] == result["per_seed"][0]["signature"]


def test_gameday_flows_survive_the_ordeal():
    cell = gameday_cell(seed=2, epochs=4, n_hosts=4)
    inner = cell["result"]
    # No wedge: a healthy majority of arrivals completed despite loss,
    # flaps, an RWND-ignoring tenant and two policy swings.
    assert inner["counters"]["completed"] >= \
        0.5 * inner["counters"]["arrivals"]
    # The kill switch left every host on the boot policy.
    assert all(p["max_rwnd"] is None for p in inner["policies"].values())


def test_gameday_arms_the_whole_sanitizer(monkeypatch):
    """Every probe, not only the vSwitch's: byte conservation on every
    switch port and the engine's clock tripwire too; and the process's
    own setting is back afterwards."""
    services = []
    real_run = Service.run

    def spy(self, epochs):
        services.append(self)
        return real_run(self, epochs)

    monkeypatch.setattr(Service, "run", spy)
    sanitize.enable(False)
    try:
        gameday_cell(seed=0, epochs=2, n_hosts=4)
        assert not sanitize.is_enabled()
    finally:
        sanitize.enable(None)
    (svc,) = services
    ports = list(svc.switch.ports.values())
    assert len(ports) == 4 and all(
        any(isinstance(tap, sanitize.PortAccounting) for tap in port.taps)
        for port in ports)
    assert all(vsw.sanitizer is not None for vsw in svc.vswitches.values())
    assert svc.sim._strict


def test_gameday_hands_the_switch_back_to_the_environment(monkeypatch):
    """A game-day cell restores the override it replaced (none here), so
    the process goes on following ``REPRO_SANITIZE`` afterwards."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    gameday_cell(seed=0, epochs=1, n_hosts=4)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize.is_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.is_enabled()
