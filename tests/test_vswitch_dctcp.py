"""Unit tests for the Fig. 5 DCTCP-in-the-vSwitch state machine."""

import pytest
from hypothesis import given, strategies as st

from repro.core.dctcp_vswitch import VswitchDctcp
from repro.core.priority import priority_decrease, rwnd_cap_for_rate, validate_beta
from repro.tcp.cc.dctcp import ALPHA_MAX

MSS = 1460


def make(beta=1.0, **kw):
    return VswitchDctcp(mss=MSS, beta=beta, **kw)


def test_initial_window_is_ten_segments():
    cc = make()
    assert cc.window_bytes == 10 * MSS


def test_slow_start_growth():
    cc = make()
    cc.ssthresh = float(1 << 30)
    wnd = cc.on_ack(snd_una=MSS, snd_nxt=11 * MSS, newly_acked=MSS,
                    feedback_total=MSS, feedback_marked=0, loss=False)
    assert wnd == 11 * MSS


def test_congestion_avoidance_growth_about_one_mss_per_window():
    cc = make()
    cc.ssthresh = cc.wnd  # CA mode
    start = cc.window_bytes
    una = 0
    for _ in range(10):  # one window of ACKs
        una += MSS
        cc.on_ack(una, una + 10 * MSS, MSS, MSS, 0, loss=False)
    assert 0.7 * MSS <= cc.window_bytes - start <= 1.5 * MSS


def test_alpha_updates_once_per_window():
    cc = make()
    cc.alpha = 1.0
    # All feedback unmarked within one window: single EWMA step.
    cc.on_ack(0, 10 * MSS, MSS, 5 * MSS, 0, loss=False)
    first = cc.alpha
    cc.on_ack(5 * MSS, 10 * MSS, MSS, 5 * MSS, 0, loss=False)  # same window
    assert cc.alpha == first
    cc.on_ack(10 * MSS, 20 * MSS, MSS, 5 * MSS, 0, loss=False)  # next window
    assert cc.alpha < first


def test_alpha_converges_to_marked_fraction():
    cc = make()
    una = 0
    for window in range(300):
        una += 10 * MSS
        cc.on_ack(una, una + 10 * MSS, MSS, 8 * MSS, 0, loss=False)
        cc.on_ack(una, una + 10 * MSS, 0, 2 * MSS, 2 * MSS, loss=False)
    assert 0.15 < cc.alpha < 0.25


def test_cut_at_most_once_per_window():
    cc = make()
    cc.wnd = 100.0 * MSS
    cc.alpha = 0.5
    # Freeze alpha: park the gate serially ahead of every snd_una used
    # here, and mark the gates seeded so on_ack doesn't re-anchor them.
    cc.alpha_update_seq = 1 << 30
    cc._gates_seeded = True
    cc.on_ack(0, 100 * MSS, 0, MSS, MSS, loss=False)
    after_first = cc.window_bytes
    assert after_first == int(100 * MSS * 0.75)
    # More marks within the same window: no further cut.
    cc.on_ack(50 * MSS, 100 * MSS, 0, MSS, MSS, loss=False)
    assert cc.window_bytes == after_first
    assert cc.cuts == 1


def test_priority_beta_modulates_cut():
    full = make(beta=1.0)
    weak = make(beta=0.0)
    for cc in (full, weak):
        cc.wnd = 100.0 * MSS
        cc.alpha = 0.4
        cc.alpha_update_seq = 1 << 30  # freeze alpha (serially ahead)
        cc._gates_seeded = True
        cc.on_ack(0, 100 * MSS, 0, MSS, MSS, loss=False)
    assert full.window_bytes == int(100 * MSS * (1 - 0.2))
    assert weak.window_bytes == int(100 * MSS * (1 - 0.4))


def test_loss_saturates_alpha_and_cuts():
    cc = make()
    cc.wnd = 80.0 * MSS
    cc.alpha = 0.1
    wnd = cc.on_ack(0, 80 * MSS, 0, 0, 0, loss=True)
    assert cc.alpha == ALPHA_MAX
    assert wnd == max(int(80 * MSS * 0.5), cc.min_wnd)
    assert cc.loss_events == 1


def test_timeout_forces_cut_even_mid_window():
    cc = make()
    cc.wnd = 80.0 * MSS
    cc.cut_seq = 1 << 30  # pretend we just cut (gate serially ahead)
    cc._gates_seeded = True
    wnd = cc.on_timeout(snd_una=0, snd_nxt=80 * MSS)
    assert wnd == 40 * MSS
    assert cc.alpha == ALPHA_MAX


def test_floor_default_is_one_mss():
    cc = make()
    cc.wnd = 0.0
    assert cc.window_bytes == MSS


def test_custom_floor_and_cap():
    cc = VswitchDctcp(mss=MSS, min_wnd_bytes=500, max_wnd_bytes=20 * MSS)
    cc.wnd = 0.0
    assert cc.window_bytes == 500
    cc.wnd = 100.0 * MSS
    assert cc.window_bytes == 20 * MSS


def test_growth_respects_cap():
    cc = VswitchDctcp(mss=MSS, max_wnd_bytes=12 * MSS)
    cc.ssthresh = float(1 << 30)
    for i in range(1, 20):
        cc.on_ack(i * MSS, (i + 10) * MSS, MSS, MSS, 0, loss=False)
    assert cc.window_bytes == 12 * MSS


def test_invalid_mss_rejected():
    with pytest.raises(ValueError):
        VswitchDctcp(mss=0)


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=300))
def test_window_always_within_bounds(events):
    """Property: whatever the feedback sequence, the window stays within
    [min_wnd, max_wnd] and alpha within [0, 1]."""
    cc = VswitchDctcp(mss=MSS, min_wnd_bytes=MSS, max_wnd_bytes=50 * MSS)
    una = 0
    for marked_tenths, loss in events:
        una += 5 * MSS
        marked = marked_tenths * MSS
        cc.on_ack(una, una + 10 * MSS, MSS, 5 * MSS, min(marked, 5 * MSS),
                  loss=loss)
        assert MSS <= cc.window_bytes <= 50 * MSS
        assert 0.0 <= cc.alpha <= 1.0


# ---------------------------------------------------------------------------
# Equation 1 helpers
# ---------------------------------------------------------------------------
def test_priority_decrease_beta_one_is_dctcp():
    assert priority_decrease(1000, 0.5, 1.0) == pytest.approx(750)


def test_priority_decrease_beta_zero_full_backoff():
    assert priority_decrease(1000, 0.5, 0.0) == pytest.approx(500)


def test_priority_decrease_monotone_in_beta():
    results = [priority_decrease(1000, 0.6, b) for b in (0.0, 0.25, 0.5, 1.0)]
    assert results == sorted(results)


def test_validate_beta_bounds():
    with pytest.raises(ValueError):
        validate_beta(-0.1)
    with pytest.raises(ValueError):
        validate_beta(1.1)
    assert validate_beta(0.5) == 0.5


def test_priority_decrease_rejects_bad_alpha():
    with pytest.raises(ValueError):
        priority_decrease(1000, 1.5, 0.5)


def test_rwnd_cap_for_rate():
    # 2 Gb/s at 100 us RTT = 25 KB window.
    assert rwnd_cap_for_rate(2e9, 100e-6) == 25_000
    with pytest.raises(ValueError):
        rwnd_cap_for_rate(0, 1)
