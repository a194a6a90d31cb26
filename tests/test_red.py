"""Unit tests for the WRED/ECN marking profile."""

import pytest

from repro.net.packet import ECN_CE, ECN_ECT0, ECN_NOT_ECT, Packet
from repro.net.red import EcnMarker
from repro.sim.rng import stream


def data_pkt(ecn):
    return Packet(src="a", dst="b", sport=1, dport=2, payload_len=100, ecn=ecn)


def test_below_threshold_untouched():
    marker = EcnMarker(threshold_bytes=1000)
    for ecn in (ECN_NOT_ECT, ECN_ECT0):
        p = data_pkt(ecn)
        decision = marker.decide(p, 999)
        assert not decision.drop and not decision.marked
        assert p.ecn == ecn


def test_at_exact_threshold_untouched():
    """DCTCP marks when the queue *exceeds* K: occupancy exactly K is a
    pass for both ECT and non-ECT packets (boundary regression — the old
    profile marked ECT arrivals at exactly K, one arrival early)."""
    marker = EcnMarker(threshold_bytes=1000)
    for ecn in (ECN_NOT_ECT, ECN_ECT0):
        p = data_pkt(ecn)
        decision = marker.decide(p, 1000)
        assert not decision.drop and not decision.marked
        assert p.ecn == ecn
    assert marker.marked_packets == 0 and marker.dropped_packets == 0


def test_nonect_at_exact_threshold_consumes_no_rng():
    """A queue parked at exactly K must not burn WRED RNG draws: the
    non-ECT stream after N at-K arrivals matches a fresh marker's."""
    a = EcnMarker(threshold_bytes=1000, rng=stream(3, "red.wred-drop"))
    b = EcnMarker(threshold_bytes=1000, rng=stream(3, "red.wred-drop"))
    for _ in range(100):
        a.decide(data_pkt(ECN_NOT_ECT), 1000)  # exactly K: no draw
    oa = [a.decide(data_pkt(ECN_NOT_ECT), 1125).drop for _ in range(50)]
    ob = [b.decide(data_pkt(ECN_NOT_ECT), 1125).drop for _ in range(50)]
    assert oa == ob


def test_ect_marked_above_threshold():
    marker = EcnMarker(threshold_bytes=1000)
    p = data_pkt(ECN_ECT0)
    decision = marker.decide(p, 1001)
    assert decision.marked and not decision.drop
    # The verdict alone neither stamps nor counts: the packet may still be
    # rejected by shared-buffer admission (mark-then-drop).
    assert p.ecn == ECN_ECT0
    assert marker.marked_packets == 0
    marker.commit_mark(p)
    assert p.ecn == ECN_CE
    assert marker.marked_packets == 1


def test_ce_stays_ce():
    marker = EcnMarker(threshold_bytes=1000)
    p = data_pkt(ECN_CE)
    decision = marker.decide(p, 5000)
    assert decision.marked and p.ecn == ECN_CE
    marker.commit_mark(p)
    assert p.ecn == ECN_CE


def test_nonect_dropped_above_ramp_top():
    marker = EcnMarker(threshold_bytes=1000)
    p = data_pkt(ECN_NOT_ECT)
    decision = marker.decide(p, 1250)  # at/above ramp top: p = 1
    assert decision.drop
    assert marker.dropped_packets == 1


def test_nonect_drop_probability_ramps():
    marker = EcnMarker(threshold_bytes=1000)  # ramp top: 1.25 K
    assert marker._nonect_drop_probability(999) == 0.0
    assert marker._nonect_drop_probability(1000) == 0.0
    assert marker._nonect_drop_probability(1125) == pytest.approx(0.5)
    assert marker._nonect_drop_probability(1250) == 1.0
    assert marker._nonect_drop_probability(9999) == 1.0


def test_nonect_drops_are_statistical_on_the_ramp():
    marker = EcnMarker(threshold_bytes=1000, rng=stream(1, "red.wred-drop"))
    outcomes = [marker.decide(data_pkt(ECN_NOT_ECT), 1125).drop
                for _ in range(2000)]
    rate = sum(outcomes) / len(outcomes)
    assert 0.45 <= rate <= 0.55


def test_disabled_marker_never_touches():
    marker = EcnMarker(enabled=False, threshold_bytes=100)
    p = data_pkt(ECN_NOT_ECT)
    decision = marker.decide(p, 10_000_000)
    assert not decision.drop and not decision.marked


def test_invalid_construction():
    with pytest.raises(ValueError):
        EcnMarker(threshold_bytes=0)


def test_deterministic_for_seed():
    a = EcnMarker(threshold_bytes=1000, rng=stream(9, "red.wred-drop"))
    b = EcnMarker(threshold_bytes=1000, rng=stream(9, "red.wred-drop"))
    oa = [a.decide(data_pkt(ECN_NOT_ECT), 1100).drop for _ in range(50)]
    ob = [b.decide(data_pkt(ECN_NOT_ECT), 1100).drop for _ in range(50)]
    assert oa == ob


# ---------------------------------------------------------------------------
# Batch (fluid-tier) form
# ---------------------------------------------------------------------------
def test_batch_matches_profile_boundaries():
    marker = EcnMarker(threshold_bytes=1000)
    at_k = marker.decide_batch(1000, ect_bytes=5000.0, nonect_bytes=5000.0)
    assert at_k.marked_bytes == 0.0 and at_k.dropped_bytes == 0.0
    above = marker.decide_batch(1125, ect_bytes=5000.0, nonect_bytes=4000.0)
    assert above.mark_fraction == 1.0
    assert above.marked_bytes == 5000.0
    assert above.drop_fraction == pytest.approx(0.5)
    assert above.dropped_bytes == pytest.approx(2000.0)


def test_batch_is_deterministic_and_counter_free():
    """Expected-value batch decisions: no RNG draws, no counter bumps."""
    marker = EcnMarker(threshold_bytes=1000, rng=stream(7, "red.wred-drop"))
    for _ in range(100):
        marker.decide_batch(1125, ect_bytes=1e6, nonect_bytes=1e6)
    assert marker.marked_packets == 0 and marker.dropped_packets == 0
    # The per-packet RNG stream is unperturbed by batch calls.
    fresh = EcnMarker(threshold_bytes=1000, rng=stream(7, "red.wred-drop"))
    oa = [marker.decide(data_pkt(ECN_NOT_ECT), 1125).drop for _ in range(50)]
    ob = [fresh.decide(data_pkt(ECN_NOT_ECT), 1125).drop for _ in range(50)]
    assert oa == ob


def test_batch_disabled_marker_is_inert():
    marker = EcnMarker(enabled=False, threshold_bytes=100)
    out = marker.decide_batch(10_000_000, ect_bytes=1e6, nonect_bytes=1e6)
    assert out.marked_bytes == 0.0 and out.dropped_bytes == 0.0


def test_fig15_coexistence_shape_regression():
    """Tier-1 pin of the Fig. 15/16 qualitative outputs after the
    threshold-boundary fix (mark strictly above K, not at K).

    The onset shift moves marking one arrival later, which does not
    change the coexistence story: under plain OVS with switch ECN on, a
    non-ECT CUBIC flow sharing the bottleneck with DCTCP starves
    (Fig. 15a), and AC/DC restores it to a fair share (Fig. 15b).  The
    full quantitative curves stay pinned in benchmarks/test_bench_fig15
    and _fig16, which pass unchanged under the fix.
    """
    from repro.experiments.fig15_16_ecn_coexistence import run

    out = run(duration=0.05, mtu=1500, seed=0)
    # Fig. 15a: the non-ECT flow is crushed well below fair share ...
    assert out["default"]["cubic_share"] < 0.15
    # ... while the DCTCP flow keeps the link busy,
    assert out["default"]["dctcp_gbps"] > 0.5
    # and the trap shows up as real loss on the CUBIC flow (Fig. 16).
    assert out["default"]["cubic_retransmits"] > 0
    # Fig. 15b: AC/DC makes both flows ECT on the wire; fair share back.
    assert 0.3 < out["acdc"]["cubic_share"] < 0.7
