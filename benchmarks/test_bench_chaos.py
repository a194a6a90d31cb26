"""Chaos sweep: goodput degradation vs fault intensity, all schemes."""

from conftest import emit, run_once
from repro.experiments import chaos as exp
from repro.experiments.report import format_table

#: The kinds of the chains ``chaos.run_point`` installs above intensity 0.
INSTALLED_KINDS = {"loss", "corrupt", "duplicate", "reorder", "delay",
                   "link_flap", "vswitch_restart"}
#: Per scheme, the kinds that act: a restart counts only where a vSwitch
#: ran one, and ``PlainOvs`` has none to run.
ACTING_KINDS = {"acdc": INSTALLED_KINDS,
                "cubic": INSTALLED_KINDS - {"vswitch_restart"},
                "dctcp": INSTALLED_KINDS - {"vswitch_restart"}}


def test_bench_chaos(benchmark, capsys):
    result = run_once(benchmark, lambda: exp.run(seed=0))
    rows = []
    for scheme, points in result.items():
        for p in points:
            rows.append([
                scheme, p["intensity"], round(p["goodput_gbps"], 3),
                f'{p["completed"]}/{p["flows"]}',
                sum(p["fault_counts"].values()),
                p.get("resurrections", "-"), p.get("feedback_resyncs", "-"),
            ])
    emit(capsys, format_table(
        ["scheme", "intensity", "goodput_gbps", "done", "events",
         "resurrect", "resync"],
        rows, title="Chaos — goodput vs fault intensity (all injectors)"))

    assert set(result) == set(ACTING_KINDS)
    for scheme, points in result.items():
        clean = points[0]
        assert clean["intensity"] == 0.0
        # Fault-free completion, near line rate, zero fault events.
        assert clean["completed"] == clean["flows"]
        assert clean["goodput_gbps"] > 8.0
        assert clean["fault_counts"] == {}
        for p in points[1:]:
            # Exact accounting both ways: every kind that can act fired,
            # and nothing else did.
            assert set(p["fault_counts"]) == ACTING_KINDS[scheme]
            # Monotone headline: faults cost goodput.
            assert p["goodput_gbps"] < clean["goodput_gbps"]

    acdc = result["acdc"]
    for p in acdc[1:]:
        # The restart fired on two hosts and entries were rebuilt mid-flow.
        assert p["fault_counts"].get("vswitch_restart") == 2
        assert p["restarts"] == 2
        assert p["resurrections"] > 0
    # Datacenter-realistic fault rates (1-2%): AC/DC transfers still
    # complete — the vSwitch layer adds no new fragility vs plain OVS.
    for p in acdc:
        if 0.0 < p["intensity"] <= 0.02:
            assert p["completed"] == p["flows"]
