"""Unit tests for the CPU-overhead cost model."""

import pytest

from repro.core.ops import OPS, OpsCounter
from repro.metrics.cpu_model import (
    OP_COSTS_NS,
    TSO_GRO_FACTOR,
    CpuReport,
    cpu_percent,
    datapath_seconds,
)


def test_ops_counter_accepts_known_ops():
    ops = OpsCounter()
    ops.record("flow_lookup")
    ops.record("cc_update", 3)
    assert ops.counts["cc_update"] == 3
    assert ops.total() == 4


def test_ops_counter_rejects_typos():
    with pytest.raises(KeyError):
        OpsCounter().record("flowlookup")


def test_ops_counter_reset():
    ops = OpsCounter()
    ops.record("forward")
    ops.packets_egress = 5
    ops.reset()
    assert ops.total() == 0
    assert ops.packets_egress == 0
    ops.record("forward")  # re-seeded, not emptied: still a known op
    assert ops.snapshot() == {"forward": 1}


def test_snapshot_drops_ops_that_never_happened():
    ops = OpsCounter()
    assert ops.snapshot() == {}
    assert set(ops.counts) == set(OPS)
    ops.record("cc_update", 2)
    assert ops.snapshot() == {"cc_update": 2}


def test_every_recorded_op_literal_is_known():
    """``record`` no longer tests membership per call, so the typo check
    for the datapath's own call sites — ``.record("op")`` and the direct
    bump ``counts["op"] += n`` — happens here, over the source."""
    import pathlib
    import re
    import repro
    root = pathlib.Path(repro.__file__).parent
    literal = re.compile(
        r"""(?:\.record\(\s*|\bcounts\[)["']([A-Za-z_]+)["']""")
    found = {}
    for sub in ("core", "guard"):
        for path in sorted((root / sub).rglob("*.py")):
            for op in literal.findall(path.read_text(encoding="utf-8")):
                found.setdefault(op, path.name)
    assert len(found) > 10  # the scan sees acdc.py's call sites
    assert not {op: f for op, f in found.items() if op not in OPS}


def test_every_op_has_a_cost():
    assert set(OP_COSTS_NS) == set(OPS)


def test_datapath_seconds_amortised_by_tso():
    seconds = datapath_seconds({"flow_lookup": 1000})
    expected = 1000 * OP_COSTS_NS["flow_lookup"] * 1e-9 / TSO_GRO_FACTOR
    assert seconds == pytest.approx(expected)


def test_cpu_percent_structure():
    report = cpu_percent({"flow_lookup": 1000, "forward": 1000},
                         tx_packets=10_000, rx_packets=10_000,
                         tx_bytes=10_000_000, rx_bytes=1_000_000,
                         connections=100, duration_s=1.0,
                         floor_percent=10.0)
    assert isinstance(report, CpuReport)
    assert report.total_percent == pytest.approx(
        report.floor_percent + report.stack_percent + report.datapath_percent)
    assert report.floor_percent == 10.0
    assert report.stack_percent > 0
    assert report.datapath_percent > 0


def test_cpu_percent_scales_with_duration():
    kwargs = dict(op_counts={}, tx_packets=1000, rx_packets=0,
                  tx_bytes=1_000_000, rx_bytes=0, connections=0)
    one = cpu_percent(duration_s=1.0, **kwargs)
    two = cpu_percent(duration_s=2.0, **kwargs)
    assert one.stack_percent == pytest.approx(2 * two.stack_percent)


def test_cpu_percent_connection_term():
    base = cpu_percent({}, 0, 0, 0, 0, connections=0, duration_s=1.0)
    many = cpu_percent({}, 0, 0, 0, 0, connections=10_000, duration_s=1.0)
    assert many.stack_percent > base.stack_percent


def test_cpu_percent_rejects_bad_duration():
    with pytest.raises(ValueError):
        cpu_percent({}, 0, 0, 0, 0, 0, duration_s=0)


def test_more_acdc_ops_cost_more_than_baseline():
    """The structural claim behind Fig. 11/12: AC/DC ops are a strict
    superset of the baseline's, so per equal packets it costs more — but
    only slightly."""
    baseline = {"flow_lookup": 1000, "forward": 1000}
    acdc = dict(baseline)
    acdc.update({"seq_update": 500, "cc_update": 500, "rwnd_rewrite": 500,
                 "checksum_recalc": 1000, "ecn_mark": 500})
    extra = datapath_seconds(acdc) - datapath_seconds(baseline)
    assert extra > 0
    # The extra work is well under the baseline's own cost.
    assert extra < datapath_seconds(baseline)
