"""Smoke tests for the experiment plumbing at miniature scale.

The benchmarks run the full-size experiments; these only verify that the
runner/config machinery is wired correctly (fast)."""

from repro.core import AcdcConfig
from repro.experiments.common import (
    ACDC,
    CUBIC,
    DCTCP,
    attach_vswitches,
    k_bytes_for_rate,
    switch_opts,
)
from repro.experiments.runners import RunResult, run_dumbbell, run_incast


def test_schemes_match_paper_configs():
    assert CUBIC.vswitch == "plain" and not CUBIC.switch_ecn
    assert DCTCP.host_cc == "dctcp" and DCTCP.host_ecn and DCTCP.switch_ecn
    assert ACDC.vswitch == "acdc" and ACDC.switch_ecn
    assert ACDC.host_cc == "cubic"  # "host TCP stack as CUBIC unless stated"


def test_scheme_with_host_cc():
    scheme = ACDC.with_host_cc("vegas")
    assert scheme.host_cc == "vegas" and not scheme.host_ecn
    assert scheme.vswitch == "acdc"
    dctcp_guest = ACDC.with_host_cc("dctcp")
    assert dctcp_guest.host_ecn


def test_k_bytes_scales_with_rate():
    assert k_bytes_for_rate(10e9) == 65 * 1500
    assert k_bytes_for_rate(1e9) == 20 * 1500


def test_switch_opts_reflect_scheme():
    opts = switch_opts(CUBIC)
    assert opts["ecn_enabled"] is False
    opts = switch_opts(ACDC, rate_bps=1e9)
    assert opts["ecn_enabled"] is True
    assert opts["ecn_threshold_bytes"] == 20 * 1500


def test_attach_vswitches_types(two_hosts):
    sim, topo, a, b, _sw = two_hosts
    from repro.core import AcdcVswitch, PlainOvs
    out = attach_vswitches(CUBIC, [a])
    assert isinstance(out[a.addr], PlainOvs)
    out = attach_vswitches(ACDC, [b], acdc_config=AcdcConfig(police=True))
    assert isinstance(out[b.addr], AcdcVswitch)
    assert out[b.addr].config.police


def test_run_dumbbell_result_shape():
    result = run_dumbbell(ACDC, pairs=2, duration=0.08, mtu=9000)
    assert isinstance(result, RunResult)
    assert len(result.tputs_bps) == 2
    assert result.rtt_samples
    assert 0 < result.fairness <= 1.0
    assert result.avg_tput_bps > 1e9


def test_run_dumbbell_per_flow_stacks():
    result = run_dumbbell(CUBIC, pairs=2, duration=0.05, mtu=9000,
                          host_ccs=["vegas", "illinois"], rtt_probe=False)
    assert result.flows[0].conn.cc_name == "vegas"
    assert result.flows[1].conn.cc_name == "illinois"


def test_run_dumbbell_staggered_flows():
    result = run_dumbbell(ACDC, pairs=2, duration=0.2, mtu=9000,
                          start_times=[0.0, 0.1], stop_times=[0.2, 0.2],
                          rtt_probe=False, tput_meters=True)
    assert len(result.meters) == 2
    # The late flow moved no bytes before its start.
    early_series = result.meters[1].series
    pre_start = [v for t, v in early_series if t <= 0.1]
    assert all(v == 0 for v in pre_start)


def test_run_incast_steady_state_measurement():
    result = run_incast(ACDC, n_senders=4, duration=0.15, mtu=9000)
    assert len(result.tputs_bps) == 4
    assert result.fairness > 0.95
    # Steady-state shares sum close to the line rate.
    assert sum(result.tputs_bps) > 8e9


def test_meters_default_on_every_runner():
    # Regression: .meters was assigned ad hoc in run_dumbbell only, so
    # parking-lot/incast results raised AttributeError on access.
    from repro.experiments.runners import run_parking_lot
    incast = run_incast(CUBIC, n_senders=2, duration=0.05, mtu=9000)
    assert incast.meters == []
    lot = run_parking_lot(CUBIC, n_senders=2, duration=0.05, mtu=9000)
    assert lot.meters == []
    plain = run_dumbbell(CUBIC, pairs=2, duration=0.05, rtt_probe=False)
    assert plain.meters == []
