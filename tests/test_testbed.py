"""One way to assemble and launch an experiment: the Testbed, the sweep
helper and the registry each exist once (DESIGN.md §4, §10)."""

import re
from pathlib import Path

from repro.experiments import EXPERIMENTS, adversarial, fig18_19_incast
from repro.experiments.__main__ import main
from repro.experiments.common import ACDC
from repro.experiments.hybrid import run_hybrid_dumbbell
from repro.experiments.runners import incast_scenario, run_dumbbell
from repro.runtime import resolve

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``python -m repro.experiments list`` as of the commit before the
#: registry: same names, same order.
CLI_NAMES = """
fig01 fig02 fig06 fig08 parking-lot fig09 fig10 fig11-12 fig13 table1
fig14 fig15-16 fig17 fig18-19 fig20 fig21 fig22 fig23 hybrid
int-attribution chaos adversarial gameday ablation-policing
ablation-feedback ablation-ecn-hiding ablation-floor
""".split()


def test_registry_entries_resolve_and_list_is_unchanged(capsys):
    assert list(EXPERIMENTS) == CLI_NAMES and len(CLI_NAMES) == 27
    for name, ref in EXPERIMENTS.items():
        assert callable(resolve(ref)), name
    assert main(["list"]) == 0
    assert capsys.readouterr().out.split() == CLI_NAMES


class _RecordingRuntime:
    """Stands in for a Runtime: keeps the specs, runs nothing."""

    def map(self, specs):
        self.specs = list(specs)
        return [{} for _ in self.specs]


def test_sweep_cache_keys_did_not_move():
    # Literals computed when cells began to carry their Scenario
    # (SPEC_VERSION 2): a result cache written then must still be hit.
    rt = _RecordingRuntime()
    fig18_19_incast.run(counts=(16,), seeds=[0], runtime=rt)
    assert rt.specs[2].describe()["kwargs"] == {"scenario": incast_scenario(
        ACDC, 16, duration=0.4, mtu=9000, seed=0).to_json()}
    assert rt.specs[2].key() == (
        "1bf4425346df67b18f51ff2d1438f1546da2f4718b5dc1562d3e1cb57a4a80d2")
    rt = _RecordingRuntime()
    adversarial.run(seed=0, quick=True, runtime=rt)
    assert rt.specs[3].fn == "repro.experiments.adversarial:run_point"
    assert rt.specs[3].key() == (
        "e2ed8b0b0f87ab65ba19cf6b3d7b061dc56175a7813e9b7662c083d5a8bbca0e")


def _port_stats(result):
    return [(port.name, [getattr(port.stats, field)
                         for field in type(port.stats).__slots__])
            for sw in result.topology.switches.values()
            for port in sw.ports.values()]


def test_hybrid_dumbbell_without_background_is_run_dumbbell():
    """The runner-level twin of §15's inert-coupling identity: both
    runners place flows on the same Testbed, so with nothing to couple
    they are the same run."""
    args = dict(duration=0.02, mtu=1500, rate_bps=1e9, seed=3)
    plain = run_dumbbell(ACDC, pairs=2, **args)
    hybrid = run_hybrid_dumbbell(ACDC, fg_pairs=2, background=(),
                                 rtt_probe=True, **args)
    assert hybrid.tputs_bps == plain.tputs_bps and sum(plain.tputs_bps) > 0
    assert hybrid.rtt_samples == plain.rtt_samples
    assert _port_stats(hybrid) == _port_stats(plain)
    assert ((hybrid.sim.events_processed, hybrid.sim.events_scheduled)
            == (plain.sim.events_processed, plain.sim.events_scheduled))


def test_the_wiring_and_the_seed_merge_exist_once():
    experiments = sorted((SRC / "experiments").glob("*.py"))
    wiring = re.compile(r"\bSimulator\(\)|\battach_vswitches\(")
    assert [p.name for p in experiments
            if wiring.search(p.read_text(encoding="utf-8"))
            ] == ["common.py"]
    assert not [p.name for p in experiments if "per_seed" in p.read_text()]
    assert "per_seed" in (SRC / "runtime" / "pool.py").read_text()
    # INT's attach order lives on IntTelemetry; its users only call it.
    for user in ("control/service.py", "experiments/int_attribution.py"):
        text = (SRC / user).read_text(encoding="utf-8")
        assert not re.search(r"attach_vswitch\(|register_int\(", text), user
