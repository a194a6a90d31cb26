"""DCTCP's law as the papers state it, for checking the simulator against.

Written from the AC/DC paper alone and importing nothing from ``repro``:

* §3.2 (after DCTCP): once per window of acknowledged bytes,
  ``alpha <- (1 - g) * alpha + g * F``, where ``F`` is the fraction of
  the window's bytes that carried a CE mark and ``g = 1/16``;
* Fig. 5's loss branch: a loss sets ``alpha`` to its maximum, 1, and
  then cuts the window;
* Equation 1 (§3.4): a cut leaves ``wnd * (1 - (alpha - alpha * beta / 2))``.

The three tiers of the simulator apply the law under different gating
(when a window closes, whether an empty window decays ``alpha``, the
initial ``alpha``, what a loss does to ``alpha``).  :class:`Law` takes
that gating as arguments; ``GUEST``, ``VSWITCH`` and ``FLUID`` are the
three settings.
"""

G = 1 / 16
ALPHA_MAX = 1.0


class Law:
    """One flow's ``alpha`` under one tier's gating."""

    def __init__(self, alpha0, empty_window_decays, loss_sets_alpha):
        self.alpha = alpha0
        self.empty_window_decays = empty_window_decays
        self.loss_sets_alpha = loss_sets_alpha

    def close_window(self, total, marked):
        """A window of ``total`` acknowledged bytes, ``marked`` with CE."""
        if total == 0 and not self.empty_window_decays:
            return
        fraction = marked / total if total else 0.0
        self.alpha = (1 - G) * self.alpha + G * fraction

    def cut(self, wnd, beta=1.0, loss=False):
        """The window Equation 1 leaves of ``wnd`` (unfloored, unrounded)."""
        alpha = self.alpha
        if loss:
            alpha = ALPHA_MAX
            if self.loss_sets_alpha:
                self.alpha = ALPHA_MAX
        return wnd * (1 - (alpha - alpha * beta / 2))


GUEST = dict(alpha0=1.0, empty_window_decays=True, loss_sets_alpha=True)
VSWITCH = dict(alpha0=1.0, empty_window_decays=False, loss_sets_alpha=True)
FLUID = dict(alpha0=0.0, empty_window_decays=True, loss_sets_alpha=False)
