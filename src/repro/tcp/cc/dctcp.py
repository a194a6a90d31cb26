"""DCTCP's law, in one place for every tier, and the guest controller.

The law (§3.2, Fig. 5 and Equation 1 of the AC/DC paper): once per
window :func:`alpha_update` moves ``alpha`` toward the marked-byte
fraction ``F`` as ``(1 - g)·alpha + g·F``; a cut keeps
:func:`cut_factor` ``= 1 - (alpha - alpha·beta/2)`` of the window
(``beta = 1`` is DCTCP's ``1 - alpha/2`` bit for bit, by Sterbenz's
lemma).  Each tier gates it in its own code:

  tier     a window closes when     empty window  α₀  on loss
  guest    ACK passes last snd_nxt  decays α      1   α = 1, then cut
  vSwitch  ACK passes last snd_nxt  keeps α       1   α = 1, then cut
  fluid    one RTT of fluid steps   decays α      0   cut at α = 1, α kept

The guest decays as Linux does; the fluid α₀ is the hybrid tier's own
calibration.  The guest receiver echoes CE on every ACK, so the echo is
exact.  ``DCTCP_MIN_CWND_MSS`` is Linux's 2-packet floor, which §5.2
blames for DCTCP's rising incast RTT (AC/DC's byte-granular RWND goes
lower); it is a parameter so the ablation bench can compare.
"""


# repro-lint: disable-file=RL001 (guest-stack CC: snd_una/snd_nxt here are the connection's unbounded linear sequence ints, not 32-bit wrapped values)

from __future__ import annotations

from .base import CongestionControl

DCTCP_G = 2.0 ** -4         # alpha EWMA gain 1/16 (Linux: dctcp_shift_g = 4)
ALPHA_MAX = 1.0             # alpha after a loss (Fig. 5)
DCTCP_MIN_CWND_MSS = 2


def alpha_update(alpha: float, marked, total) -> float:
    """§3.2's EWMA over one window; an empty window reads as unmarked."""
    fraction = marked / total if total > 0 else 0.0
    return (1.0 - DCTCP_G) * alpha + DCTCP_G * fraction


def cut_factor(alpha: float, beta: float = 1.0) -> float:
    """Equation 1: the fraction of the window kept on a congestion event."""
    return 1.0 - (alpha - alpha * beta / 2.0)


class Dctcp(CongestionControl):
    """Guest DCTCP with per-window alpha update and proportional decrease."""

    name = "dctcp"

    def __init__(self, conn, min_cwnd_mss: int = DCTCP_MIN_CWND_MSS):
        super().__init__(conn)
        self.alpha = 1.0                 # Linux starts alpha at 1
        self.acked_bytes_total = 0
        self.acked_bytes_ecn = 0
        self.window_end = conn.snd_nxt   # next alpha update boundary
        self.reduced_this_window = False
        self.min_cwnd_mss = min_cwnd_mss

    # ------------------------------------------------------------------
    def on_ack_ecn_info(self, acked_bytes: int, marked: bool) -> None:
        self.acked_bytes_total += acked_bytes
        if marked:
            self.acked_bytes_ecn += acked_bytes
        if self.conn.snd_una >= self.window_end:   # a window closed
            self.alpha = alpha_update(self.alpha, self.acked_bytes_ecn,
                                      self.acked_bytes_total)
            self.acked_bytes_total = 0
            self.acked_bytes_ecn = 0
            self.window_end = self.conn.snd_nxt
            self.reduced_this_window = False

    # ------------------------------------------------------------------
    def on_ecn_signal(self) -> bool:
        """Proportional cut, at most once per window; suppress the classic
        halve-on-ECE reaction in the connection."""
        if not self.reduced_this_window:
            conn = self.conn
            new_cwnd = int(conn.cwnd * cut_factor(self.alpha))
            conn.cwnd = max(new_cwnd, self.min_cwnd())
            conn.ssthresh = conn.cwnd
            self.reduced_this_window = True
        return False

    def ssthresh_after_loss(self) -> int:
        # Loss is a strong signal: Linux applies the alpha cut; the AC/DC
        # datapath (Fig. 5) additionally saturates alpha on loss, which we
        # mirror for parity between guest and vSwitch implementations.
        self.alpha = ALPHA_MAX
        conn = self.conn
        return max(int(conn.cwnd * cut_factor(self.alpha)), self.min_cwnd())

    def min_cwnd(self) -> int:
        return self.min_cwnd_mss * self.conn.mss
