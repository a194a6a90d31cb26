"""One DCTCP law for the guest, the vSwitch and the fluid tier.

``repro.tcp.cc.dctcp`` holds the law (``alpha_update``, ``cut_factor``,
``DCTCP_G``, ``ALPHA_MAX``); every tier calls it under its own gating.
Here each tier is driven window by window and compared, bit for bit,
with ``tests/reference/dctcp_law.py`` — a model written from the paper
that imports nothing from ``repro`` — and a source scan keeps the law's
formulas from being written anywhere else.
"""

import ast
from collections import defaultdict
from pathlib import Path

from hypothesis import given, settings, strategies as st

from reference.dctcp_law import FLUID, GUEST, VSWITCH, Law
from repro.core.dctcp_vswitch import VswitchDctcp
from repro.fluid import FluidClass, FluidFlowSpec
from repro.tcp.cc.dctcp import Dctcp, cut_factor

SRC = Path(__file__).resolve().parent.parent / "src"
MSS = 1460
SEQ_MOD = 1 << 32

#: One feedback window: (bytes acknowledged, of them CE-marked, loss).
window = st.integers(0, 1 << 20).flatmap(
    lambda total: st.tuples(st.just(total), st.integers(0, total),
                            st.booleans()))
windows = st.lists(window, min_size=1, max_size=24)


# ---------------------------------------------------------------------------
# (a) Each tier against the reference
# ---------------------------------------------------------------------------
class StubConn:
    """What guest ``Dctcp`` reads and writes of its connection."""

    def __init__(self, cwnd, snd_nxt):
        self.mss = MSS
        self.cwnd = self.ssthresh = cwnd
        self.snd_una = 0
        self.snd_nxt = snd_nxt


def check_guest(seq, cwnd0):
    """Guest gating: a window closes when the cumulative ACK passes the
    ``snd_nxt`` of the last update; an empty window decays alpha."""
    conn = StubConn(cwnd0, snd_nxt=seq[0][0])
    cc, law = Dctcp(conn), Law(**GUEST)
    nexts = [total for total, _, _ in seq[1:]] + [0]
    for (total, marked, loss), next_total in zip(seq, nexts):
        acks = [(n, ce) for n, ce in ((marked, True), (total - marked, False))
                if n] or [(0, False)]
        for i, (n, ce) in enumerate(acks, 1):
            conn.snd_una += n
            if i == len(acks):              # this ACK closes the window
                conn.snd_nxt = conn.snd_una + next_total
            cc.on_ack_ecn_info(n, ce)
        law.close_window(total, marked)
        assert cc.alpha == law.alpha
        before = conn.cwnd
        if loss:
            conn.cwnd = conn.ssthresh = cc.ssthresh_after_loss()
        elif marked:
            cc.on_ecn_signal()
        if loss or marked:
            assert conn.cwnd == max(int(law.cut(before, loss=loss)), 2 * MSS)
            assert cc.alpha == law.alpha


def check_vswitch(seq, wnd0, beta, iss):
    """vSwitch gating: one ACK per window, sequence-gated (serial
    arithmetic, so ``iss`` may sit just below the wrap); an empty window
    keeps alpha."""
    cc, law = VswitchDctcp(MSS, beta=beta), Law(**VSWITCH)
    cc.wnd = float(wnd0)
    snd_una = iss
    for total, marked, loss in seq:
        snd_nxt = (snd_una + total + 1) % SEQ_MOD
        before = cc.wnd
        cc.on_ack(snd_una, snd_nxt, 0, total, marked, loss)
        law.close_window(total, marked)
        expected = before
        if loss or marked:
            expected = max(law.cut(before, beta, loss), float(MSS))
        assert (cc.alpha, cc.wnd) == (law.alpha, expected)
        snd_una = snd_nxt


def check_fluid(seq, cwnd0):
    """Fluid gating: a window closes after one RTT of steps; an empty
    window decays alpha; a loss cuts at alpha's maximum and keeps alpha."""
    spec = FluidFlowSpec("x", n_flows=1, rtt_s=1e-3)
    cls, law = FluidClass(spec), Law(**FLUID)
    cls.cwnd = float(cwnd0)
    for total, marked, loss in seq:
        cls.win_sent, cls.win_marked = float(total), float(marked)
        cls.win_lost = 1.0 if loss else 0.0
        before = cls.cwnd
        cls.advance_feedback(spec.rtt_s)
        law.close_window(total, marked)
        if loss or marked:
            expected = max(law.cut(before, loss=loss), float(MSS))
        else:
            expected = before + MSS
        assert (cls.alpha, cls.cwnd) == (law.alpha, expected)


@settings(max_examples=200, deadline=None)
@given(seq=windows, wnd0=st.integers(MSS, 1 << 40),
       iss=st.integers(0, SEQ_MOD - 1))
def test_every_tier_applies_the_reference_law_bit_for_bit(seq, wnd0, iss):
    check_guest(seq, wnd0)
    for beta in (0.0, 0.5, 1.0):
        check_vswitch(seq, wnd0, beta, iss)
    check_fluid(seq, wnd0)


@given(st.floats(0.0, 1.0, allow_subnormal=True))
def test_cut_factor_at_beta_one_is_dctcps_halving(alpha):
    assert cut_factor(alpha, 1.0) == 1.0 - alpha / 2.0


# ---------------------------------------------------------------------------
# (b) The law is written once
# ---------------------------------------------------------------------------
LAW_FUNCTIONS = {"alpha_update", "cut_factor"}
LAW_NAMES = LAW_FUNCTIONS | {"DCTCP_G", "ALPHA_MAX"}


def named(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def number(node, value):
    return (isinstance(node, ast.Constant)
            and type(node.value) in (int, float) and node.value == value)


def copy_of_the_law(node):
    """What ``node`` writes of the law, or None."""
    if isinstance(node, ast.BinOp):
        left, right = node.left, node.right
        if isinstance(node.op, ast.Div) and named(left, "alpha") \
                and number(right, 2):
            return "alpha / 2"
        if isinstance(node.op, ast.Mult) and (
                named(left, "alpha") and named(right, "beta")
                or named(left, "beta") and named(right, "alpha")):
            return "alpha * beta"
        if isinstance(node.op, ast.Div) and number(left, 1) \
                and number(right, 16):
            return "1 / 16"
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp) \
            and any(isinstance(t, ast.Attribute) and t.attr == "alpha"
                    for t in node.targets):
        return "alpha = <arithmetic>"
    if isinstance(node, ast.AugAssign) \
            and isinstance(node.target, ast.Attribute) \
            and node.target.attr == "alpha":
        return "alpha op= ..."
    return None


def law_definition(node):
    """The law's own name if ``node`` defines one, else None."""
    if isinstance(node, ast.FunctionDef) and node.name in LAW_FUNCTIONS:
        return node.name
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in LAW_NAMES:
                return target.id
    return None


def scan(src):
    """(copies of the law outside it, module -> law names defined)."""
    copies, defined = [], defaultdict(list)
    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.relative_to(src).as_posix()
        exempt = set()
        for node in tree.body:
            name = law_definition(node)
            if name:
                defined[name].append(module)
                if name in LAW_FUNCTIONS:
                    exempt.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            what = id(node) not in exempt and copy_of_the_law(node)
            if what:
                copies.append(f"{module}:{node.lineno}: {what}")
    return copies, defined


def test_the_law_is_written_in_one_place():
    copies, defined = scan(SRC)
    assert copies == []
    home = "repro/tcp/cc/dctcp.py"
    for name in LAW_FUNCTIONS | {"DCTCP_G"}:
        assert defined[name] == [home], name
    # TCP Illinois has an ALPHA_MAX of its own (10 segments per RTT, its
    # additive-increase ceiling): another law's constant.
    assert defined["ALPHA_MAX"] == ["repro/tcp/cc/dctcp.py",
                                    "repro/tcp/cc/illinois.py"]
