"""DCTCP congestion control executed inside the vSwitch (§3.2, Fig. 5).

This is the administrator-defined algorithm AC/DC enforces.  It is fed by
the sender module on every incoming ACK with (a) the conntrack verdict and
(b) the ECN feedback deltas recovered from PACK/FACK options, and it
produces the congestion window the enforcement module writes into RWND.

Control flow mirrors Fig. 5 exactly:

1. update connection tracking variables; update alpha once per RTT
   (sequence-gated, like the Linux implementation);
2. on loss: alpha := max_alpha, then cut;
3. on congestion (marked bytes seen): cut, at most once per window,
   using the priority-generalised Equation 1;
4. otherwise ``tcp_cong_avoid()``: NewReno slow start / congestion
   avoidance.

The window floor is configurable in **bytes**: unlike the Linux DCTCP
module's 2-packet minimum, AC/DC's RWND "can be much smaller than 2*MSS"
(§5.2), which is why its incast RTT beats native DCTCP in Fig. 19.
"""

from __future__ import annotations

from ..net.packet import SEQ_HALF, SEQ_MASK
from ..tcp.cc.dctcp import ALPHA_MAX, alpha_update, cut_factor
from .priority import validate_beta
from .vswitch_cc import VswitchCongestionControl


class VswitchDctcp(VswitchCongestionControl):
    """Per-flow DCTCP state machine run by the AC/DC sender module.

    The window floor/cap, the once-per-window cut gate and NewReno
    growth (Fig. 5's ``tcp_cong_avoid()``) are the base class's; DCTCP
    adds the law of :mod:`repro.tcp.cc.dctcp`, gated per window.
    """

    name = "dctcp"

    def __init__(self, mss: int, beta: float = 1.0,
                 min_wnd_bytes=None, max_wnd_bytes=None):
        super().__init__(mss, validate_beta(beta), min_wnd_bytes,
                         max_wnd_bytes)
        self.alpha = 1.0
        # Alpha updates once per window/RTT, sequence-gated like the cut
        # (seeded with it in :meth:`_seed_gates`).
        self.alpha_update_seq = 0
        # Feedback accumulators between alpha updates.
        self._acked_total = 0
        self._acked_marked = 0

    # ------------------------------------------------------------------
    def on_ack(
        self,
        snd_una: int,
        snd_nxt: int,
        newly_acked: int,
        feedback_total: int,
        feedback_marked: int,
        loss: bool,
    ) -> int:
        """Process one ACK's worth of information; returns the new window.

        ``feedback_total``/``feedback_marked`` are the *deltas* of the
        receiver-module byte counters carried by PACK/FACK since the last
        ACK (zero when the ACK carried no feedback option).  The gate
        test is ``seq_geq`` and the result ``window_bytes``, in place.
        """
        if not self._gates_seeded:
            self._seed_gates(snd_una)
        self._acked_total += feedback_total
        self._acked_marked += feedback_marked
        if (snd_una - self.alpha_update_seq) & SEQ_MASK < SEQ_HALF:
            # A window closed.  Inline, not a method: the gate passes on
            # most ACKs, so a call here costs ~0.3 Python frames per
            # switch packet (DESIGN §10's frame budget).
            if self._acked_total > 0:    # an empty window keeps alpha
                self.alpha = alpha_update(self.alpha, self._acked_marked,
                                          self._acked_total)
            self._acked_total = 0
            self._acked_marked = 0
            self.alpha_update_seq = snd_nxt

        congestion = feedback_marked > 0
        if loss:
            self.alpha = ALPHA_MAX
            self.loss_events += 1
            self._cut(snd_una, snd_nxt)
        elif congestion:
            self._cut(snd_una, snd_nxt)
        elif newly_acked > 0:
            self._grow(newly_acked)
        return int(min(max(self.wnd, self.min_wnd), self.max_wnd))

    def on_timeout(self, snd_una: int, snd_nxt: int) -> int:
        """Inferred RTO (inactivity with bytes outstanding): saturate alpha
        and cut; Fig. 5 treats it as the loss branch."""
        self._seed_gates(snd_una)
        self.alpha = ALPHA_MAX
        self.loss_events += 1
        # A timeout is a window-boundary event by definition; force the cut.
        self.cut_seq = snd_una
        self._cut(snd_una, snd_nxt)
        return self.window_bytes

    # ------------------------------------------------------------------
    def _seed_gates(self, snd_una: int) -> None:
        if not self._gates_seeded:
            self.alpha_update_seq = snd_una
            super()._seed_gates(snd_una)

    def _cut_factor(self) -> float:
        return cut_factor(self.alpha, self.beta)
