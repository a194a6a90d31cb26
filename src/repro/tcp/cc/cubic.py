"""CUBIC congestion control (Ha, Rhee, Xu — Linux's default).

Implements the published window growth function (RFC 9438)

    W_cubic(t) = C * (t - K)^3 + W_max,      K = cbrt(W_max * (1 - beta) / C)

where ``beta`` = 0.7 is the multiplicative decrease factor, so
``W_max * (1 - beta)`` is the window the cut removed; the code takes K
from ``w_max - cwnd`` after the cut.  Adds the TCP-friendliness region
(track the window Reno would have) and fast convergence.  Internally
CUBIC thinks in MSS units, as the kernel does; the connection's ``cwnd``
stays in bytes.
"""

from __future__ import annotations

from typing import Optional

from .base import CongestionControl

#: Standard constants from the CUBIC paper / Linux defaults.
CUBIC_C = 0.4          # scaling factor (MSS / s^3)
CUBIC_BETA = 0.7       # multiplicative decrease factor (cwnd *= beta)


class Cubic(CongestionControl):
    """CUBIC with fast convergence and the TCP-friendly region."""

    name = "cubic"

    def __init__(self, conn):
        super().__init__(conn)
        self.w_max = 0.0            # MSS units
        self.epoch_start: Optional[float] = None
        self.k = 0.0
        self.origin_point = 0.0
        self.w_est = 0.0            # TCP-friendly (Reno-equivalent) window
        self.ack_cnt = 0.0

    # ------------------------------------------------------------------
    def _reset_epoch(self) -> None:
        self.epoch_start = None
        self.ack_cnt = 0.0

    def on_ack(self, acked_bytes: int, rtt: Optional[float]) -> None:
        conn = self.conn
        if conn.cwnd < conn.ssthresh:
            conn.cwnd = min(conn.cwnd + acked_bytes, conn.max_cwnd)
            return
        self._cubic_update(acked_bytes, rtt or conn.srtt or 0.0)

    def _cubic_update(self, acked_bytes: int, rtt: float) -> None:
        conn = self.conn
        mss = conn.mss
        cwnd_mss = conn.cwnd / mss
        now = conn.sim.now
        if self.epoch_start is None:
            self.epoch_start = now
            self.ack_cnt = 0.0
            if cwnd_mss < self.w_max:
                self.k = ((self.w_max - cwnd_mss) / CUBIC_C) ** (1.0 / 3.0)
                self.origin_point = self.w_max
            else:
                self.k = 0.0
                self.origin_point = cwnd_mss
            self.w_est = cwnd_mss
        # Target window one RTT into the future, per the kernel.
        t = now - self.epoch_start + rtt
        target = self.origin_point + CUBIC_C * (t - self.k) ** 3
        if target > cwnd_mss:
            # Spread the increase over the ACKs of one window.
            increment = (target - cwnd_mss) / cwnd_mss
        else:
            increment = 1.0 / (100.0 * cwnd_mss)  # minimal growth
        # TCP-friendly region: emulate Reno's AIMD(1, 0.5->beta) rate.
        self.ack_cnt += acked_bytes / mss
        reno_slope = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
        self.w_est += reno_slope * (acked_bytes / mss) / cwnd_mss
        if self.w_est > cwnd_mss + increment:
            increment = self.w_est - cwnd_mss
        conn.cwnd = min(int(conn.cwnd + increment * mss), conn.max_cwnd)

    # ------------------------------------------------------------------
    def ssthresh_after_loss(self) -> int:
        conn = self.conn
        cwnd_mss = conn.cwnd / conn.mss
        # Fast convergence: release bandwidth faster when w_max shrinks.
        if cwnd_mss < self.w_max:
            self.w_max = cwnd_mss * (1.0 + CUBIC_BETA) / 2.0
        else:
            self.w_max = cwnd_mss
        self._reset_epoch()
        return max(int(conn.cwnd * CUBIC_BETA), self.min_cwnd())

    def on_rto(self) -> None:
        self.w_max = self.conn.cwnd / self.conn.mss
        self._reset_epoch()
