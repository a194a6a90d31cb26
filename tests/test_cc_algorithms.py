"""Unit tests for the pluggable congestion-control algorithms.

These drive the algorithm objects directly against a minimal connection
stub, checking the window *policy* math in isolation from the transport
mechanics (which the integration tests cover).
"""

import pytest

from repro.tcp.cc import available, make_cc
from repro.tcp.cc.cubic import CUBIC_BETA, Cubic
from repro.tcp.cc.dctcp import Dctcp
from repro.tcp.cc.highspeed import HighSpeed, hstcp_alpha, hstcp_beta
from repro.tcp.cc.illinois import ALPHA_MAX, BETA_MAX, BETA_MIN, Illinois
from repro.tcp.cc.reno import Reno
from repro.tcp.cc.vegas import Vegas


class StubSim:
    def __init__(self):
        self.now = 0.0


class StubConn:
    """The slice of TcpConnection the CC modules touch."""

    def __init__(self, mss=1460, cwnd=None, ssthresh=(1 << 30)):
        self.sim = StubSim()
        self.mss = mss
        self.cwnd = cwnd if cwnd is not None else 10 * mss
        self.ssthresh = ssthresh
        self.max_cwnd = 1 << 30
        self.snd_una = 0
        self.snd_nxt = 0
        self.bytes_in_flight = 0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_contains_all_paper_stacks():
    assert available() == ["cubic", "dctcp", "highspeed", "illinois", "reno",
                           "vegas"]


def test_make_cc_unknown_raises():
    with pytest.raises(ValueError):
        make_cc("bbr", StubConn())


# ---------------------------------------------------------------------------
# Reno / base
# ---------------------------------------------------------------------------
def test_reno_slow_start_doubles_per_window():
    conn = StubConn(cwnd=10 * 1460)
    cc = Reno(conn)
    cc.on_ack(10 * 1460, 0.001)  # one full window acked in slow start
    assert conn.cwnd == 20 * 1460


def test_reno_congestion_avoidance_one_mss_per_window():
    conn = StubConn(cwnd=100 * 1460, ssthresh=1460)
    cc = Reno(conn)
    start = conn.cwnd
    # Ack one full window in MSS chunks.
    for _ in range(100):
        cc.on_ack(1460, 0.001)
    growth = conn.cwnd - start
    assert 0.8 * 1460 <= growth <= 1.6 * 1460


def test_reno_halves_on_loss():
    conn = StubConn(cwnd=64 * 1460)
    cc = Reno(conn)
    assert cc.ssthresh_after_loss() == 32 * 1460


def test_reno_loss_floor_two_segments():
    conn = StubConn(cwnd=2 * 1460)
    cc = Reno(conn)
    assert cc.ssthresh_after_loss() == 2 * 1460


def test_base_respects_max_cwnd():
    conn = StubConn(cwnd=10 * 1460)
    conn.max_cwnd = 12 * 1460
    cc = Reno(conn)
    cc.on_ack(10 * 1460, 0.001)
    assert conn.cwnd == 12 * 1460


# ---------------------------------------------------------------------------
# CUBIC
# ---------------------------------------------------------------------------
def test_cubic_reduction_factor():
    conn = StubConn(cwnd=100 * 1460)
    cc = Cubic(conn)
    assert cc.ssthresh_after_loss() == int(100 * 1460 * CUBIC_BETA)


def test_cubic_fast_convergence_lowers_wmax():
    conn = StubConn(cwnd=100 * 1460)
    cc = Cubic(conn)
    cc.ssthresh_after_loss()
    first_wmax = cc.w_max
    conn.cwnd = 50 * 1460  # loss at a lower window than before
    cc.ssthresh_after_loss()
    assert cc.w_max < 50  # shrunk below the actual window (in MSS)
    assert first_wmax == 100


def test_cubic_concave_growth_toward_wmax():
    """After a loss, growth approaches W_max and flattens near it."""
    conn = StubConn(cwnd=70 * 1460, ssthresh=70 * 1460)
    cc = Cubic(conn)
    cc.w_max = 100.0
    rtt = 0.001
    sizes = []
    for step in range(60):
        conn.sim.now += rtt
        for _ in range(int(conn.cwnd / conn.mss)):
            cc.on_ack(conn.mss, rtt)
        sizes.append(conn.cwnd / conn.mss)
    # Strictly growing, and crosses the old W_max eventually.
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > 100.0
    # Growth rate shrinks while approaching w_max (concave region).
    early = sizes[5] - sizes[0]
    # find index closest to w_max
    idx = min(range(len(sizes)), key=lambda i: abs(sizes[i] - 100.0))
    if 5 <= idx < len(sizes) - 5:
        late = sizes[idx + 2] - sizes[idx - 3]
        assert late < early


def test_cubic_slow_start_before_ssthresh():
    conn = StubConn(cwnd=10 * 1460, ssthresh=100 * 1460)
    cc = Cubic(conn)
    cc.on_ack(1460, 0.001)
    assert conn.cwnd == 11 * 1460


# ---------------------------------------------------------------------------
# DCTCP
# ---------------------------------------------------------------------------
def make_dctcp(cwnd_mss=50):
    conn = StubConn(cwnd=cwnd_mss * 1460, ssthresh=cwnd_mss * 1460)
    cc = Dctcp(conn)
    return conn, cc


def test_dctcp_alpha_decays_without_marks():
    conn, cc = make_dctcp()
    assert cc.alpha == 1.0
    for window in range(10):
        conn.snd_una += 50 * 1460
        conn.snd_nxt = conn.snd_una + 50 * 1460
        cc.on_ack_ecn_info(50 * 1460, marked=False)
    assert cc.alpha < 0.6  # EWMA decaying toward 0


def test_dctcp_alpha_converges_to_mark_fraction():
    conn, cc = make_dctcp()
    # 30% of bytes marked, for many windows.
    for window in range(200):
        conn.snd_una += 10 * 1460
        conn.snd_nxt = conn.snd_una + 10 * 1460
        cc.on_ack_ecn_info(7 * 1460, marked=False)
        cc.on_ack_ecn_info(3 * 1460, marked=True)
    assert 0.25 < cc.alpha < 0.35


def test_dctcp_proportional_cut_once_per_window():
    conn, cc = make_dctcp(cwnd_mss=100)
    cc.alpha = 0.4
    before = conn.cwnd
    assert cc.on_ecn_signal() is False  # handles its own reduction
    assert conn.cwnd == int(before * 0.8)  # (1 - alpha/2)
    mid = conn.cwnd
    cc.on_ecn_signal()   # same window: no second cut
    assert conn.cwnd == mid


def test_dctcp_cut_unlocks_next_window():
    conn, cc = make_dctcp(cwnd_mss=100)
    cc.alpha = 0.5
    cc.on_ecn_signal()
    first = conn.cwnd
    # Advance a window: alpha update re-arms the cut.
    conn.snd_una = cc.window_end + 1
    conn.snd_nxt = conn.snd_una + 10 * 1460
    cc.on_ack_ecn_info(10 * 1460, marked=True)
    cc.on_ecn_signal()
    assert conn.cwnd < first


def test_dctcp_loss_saturates_alpha():
    conn, cc = make_dctcp(cwnd_mss=100)
    cc.alpha = 0.1
    new_ssthresh = cc.ssthresh_after_loss()
    assert cc.alpha == 1.0
    assert new_ssthresh == max(int(100 * 1460 * 0.5), cc.min_cwnd())


def test_dctcp_min_cwnd_is_two_segments():
    conn, cc = make_dctcp()
    assert cc.min_cwnd() == 2 * 1460


def test_dctcp_configurable_floor():
    conn = StubConn()
    cc = Dctcp(conn, min_cwnd_mss=4)
    assert cc.min_cwnd() == 4 * 1460


# ---------------------------------------------------------------------------
# Vegas
# ---------------------------------------------------------------------------
def run_vegas_window(cc, conn, rtt, acked_mss=10):
    """Feed one window's worth of ACKs at a given RTT."""
    for _ in range(acked_mss):
        cc.on_ack(conn.mss, rtt)
    conn.snd_una = conn.snd_nxt
    conn.snd_nxt += acked_mss * conn.mss
    cc.on_ack(conn.mss, rtt)


def test_vegas_grows_when_below_alpha():
    conn = StubConn(cwnd=10 * 1460, ssthresh=1460)  # CA mode
    cc = Vegas(conn)
    conn.snd_nxt = 10 * 1460
    before = conn.cwnd
    # base == current RTT: diff = 0 < alpha -> grow
    run_vegas_window(cc, conn, 0.001)
    run_vegas_window(cc, conn, 0.001)
    assert conn.cwnd > before


def test_vegas_shrinks_when_backlog_large():
    conn = StubConn(cwnd=50 * 1460, ssthresh=1460)
    cc = Vegas(conn)
    conn.snd_nxt = 50 * 1460
    cc.base_rtt = 0.0001
    before = conn.cwnd
    # RTT 10x base: diff = cwnd * 0.9 >> beta -> shrink
    run_vegas_window(cc, conn, 0.001)
    run_vegas_window(cc, conn, 0.001)
    assert conn.cwnd < before


def test_vegas_tracks_min_base_rtt():
    conn = StubConn()
    cc = Vegas(conn)
    cc.on_ack(1460, 0.005)
    cc.on_ack(1460, 0.002)
    cc.on_ack(1460, 0.009)
    assert cc.base_rtt == 0.002


# ---------------------------------------------------------------------------
# Illinois
# ---------------------------------------------------------------------------
def test_illinois_alpha_max_when_no_delay():
    conn = StubConn(cwnd=50 * 1460, ssthresh=1460)
    cc = Illinois(conn)
    cc.base_rtt, cc.max_rtt = 0.001, 0.002
    cc.rtt_sum, cc.rtt_cnt = 0.001 * 5, 5   # avg == base: no queueing
    cc._update_params()
    assert cc.alpha == ALPHA_MAX


def test_illinois_alpha_min_when_delay_high():
    conn = StubConn(cwnd=50 * 1460, ssthresh=1460)
    cc = Illinois(conn)
    cc.base_rtt, cc.max_rtt = 0.001, 0.011
    cc.rtt_sum, cc.rtt_cnt = 0.011 * 5, 5   # avg == max: full queueing
    cc._update_params()
    assert cc.alpha == pytest.approx(0.3, abs=0.05)


def test_illinois_beta_ramps_with_delay():
    conn = StubConn(cwnd=50 * 1460, ssthresh=1460)
    cc = Illinois(conn)
    cc.base_rtt, cc.max_rtt = 0.001, 0.011
    cc.rtt_sum, cc.rtt_cnt = 0.0015 * 5, 5   # low delay
    cc._update_params()
    assert cc.beta == BETA_MIN
    cc.rtt_sum, cc.rtt_cnt = 0.0105 * 5, 5   # high delay
    cc._update_params()
    assert cc.beta == BETA_MAX


def test_illinois_small_window_acts_like_reno():
    conn = StubConn(cwnd=5 * 1460, ssthresh=1460)
    cc = Illinois(conn)
    cc.base_rtt, cc.max_rtt = 0.001, 0.011
    cc.rtt_sum, cc.rtt_cnt = 0.011 * 5, 5
    cc._update_params()
    assert cc.alpha == 1.0 and cc.beta == BETA_MAX


# ---------------------------------------------------------------------------
# HighSpeed
# ---------------------------------------------------------------------------
def test_hstcp_reno_region():
    assert hstcp_alpha(20) == 1.0
    assert hstcp_beta(20) == 0.5


def test_hstcp_alpha_grows_with_window():
    assert hstcp_alpha(100) > hstcp_alpha(50) > 1.0


def test_hstcp_beta_shrinks_with_window():
    assert hstcp_beta(83000) == pytest.approx(0.1, abs=1e-9)
    assert hstcp_beta(100) < 0.5


def test_hstcp_loss_reduction_gentler_at_scale():
    small = StubConn(cwnd=20 * 1460)
    big = StubConn(cwnd=1000 * 1460)
    small_cut = 1 - HighSpeed(small).ssthresh_after_loss() / small.cwnd
    big_cut = 1 - HighSpeed(big).ssthresh_after_loss() / big.cwnd
    assert big_cut < small_cut
