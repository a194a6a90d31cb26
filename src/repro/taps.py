"""Taps: the one way an optional subsystem attaches to the datapath.

An attachment point (``AcdcVswitch``, ``SwitchTxPort``) keeps its taps,
in attach order, on ``taps`` and, per name in its hook tuple, the bound
methods of the taps that implement it on ``_<hook>``: a hook no tap
implements costs one empty-tuple loop (DESIGN.md §3, §10).
"""


def init_taps(owner, hooks, taps) -> None:
    """Empty every hook tuple, then add each of ``taps`` but None."""
    owner.taps = ()
    for hook in hooks:
        setattr(owner, "_" + hook, ())
    for tap in taps:
        if tap is not None:
            bind_tap(owner, hooks, tap)


def bind_tap(owner, hooks, tap) -> None:
    """Append ``tap`` to ``owner.taps`` and its hook methods to theirs."""
    owner.taps += (tap,)
    for hook in hooks:
        if hasattr(tap, hook):
            name = "_" + hook
            setattr(owner, name, getattr(owner, name) + (getattr(tap, hook),))
