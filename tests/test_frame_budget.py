"""The packet path's frame budget (DESIGN.md §10, "engine fast path").

Since one calendar event carries a packet over a hop, what a simulated
packet costs the host is, almost entirely, the Python frames entered on
its way.  That count is exact — it repeats bit for bit, on any host — so
it is the regression gate that host noise cannot blur, as the
events-per-packet pin of ``test_link_departures.py`` is for the calendar.
The rest of the file pins the pieces the budget was met with: shared
immutable WRED verdicts, a slotted ``Packet``, and an import surface
without the static analyzer or the process-pool machinery.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.common import ACDC, DCTCP
from repro.experiments.runners import run_dumbbell
from repro.net.packet import ECN_ECT0, ECN_NOT_ECT, Packet, PackOption
from repro.net.red import EcnMarker

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# (a) The budget
# ---------------------------------------------------------------------------
def frames_per_switch_packet(scheme):
    """Python ``call`` events of one small dumbbell run (the ledger's
    dumbbell at a tenth of its duration, set-up included) per packet the
    switches transmitted."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        result = run_dumbbell(scheme, pairs=5, duration=0.02, mtu=1500,
                              rate_bps=1e9, rtt_probe=True, seed=1)
    finally:
        sys.setprofile(None)
    packets = sum(port.stats.tx_packets
                  for switch in result.topology.switches.values()
                  for port in switch.ports.values())
    assert packets > 5000
    return calls / packets


#: scheme -> (frames per switch packet at the parent of the change that
#: introduced the budget, ceiling).  Measured here: 23.27 and 36.26; the
#: ceiling sits about 10 % above that and may not exceed 0.6x the parent.
BUDGET = {
    DCTCP: (43.81, 25.6),    # guests behind PlainOvs: net + tcp only
    ACDC: (71.37, 39.9),     # the full vSwitch datapath on top
}


@pytest.mark.parametrize("scheme", BUDGET, ids=lambda scheme: scheme.name)
def test_frames_per_switch_packet_stay_within_budget(scheme):
    parent, ceiling = BUDGET[scheme]
    assert ceiling <= 0.6 * parent
    assert frames_per_switch_packet(scheme) <= ceiling


# ---------------------------------------------------------------------------
# (c) WRED verdicts are shared and immutable
# ---------------------------------------------------------------------------
def packet(ecn=ECN_NOT_ECT, **fields):
    return Packet(src="a", dst="b", sport=1, dport=2, payload_len=100,
                  ecn=ecn, **fields)


def test_decide_hands_out_shared_immutable_verdicts():
    marker = EcnMarker(threshold_bytes=1000, ramp_factor=1.0)
    below = marker.decide(packet(), 10)
    mark = marker.decide(packet(ECN_ECT0), 5000)
    drop = marker.decide(packet(), 5000)         # ramp top = K: p = 1
    assert (below.drop, below.marked) == (False, False)
    assert (mark.drop, mark.marked) == (False, True)
    assert (drop.drop, drop.marked) == (True, False)
    assert marker.decide(packet(ECN_ECT0), 10) is below
    assert marker.decide(packet(ECN_ECT0), 9000) is mark
    assert marker.decide(packet(), 9000) is drop
    assert EcnMarker(enabled=False).decide(packet(), 9000) is below
    for verdict in (below, mark, drop):
        with pytest.raises(AttributeError):
            verdict.marked = True
        with pytest.raises(AttributeError):
            verdict.drop = False
        assert not hasattr(verdict, "__dict__")


# ---------------------------------------------------------------------------
# (d) Packet is slotted
# ---------------------------------------------------------------------------
def test_packet_rejects_an_unknown_attribute():
    pkt = packet()
    with pytest.raises(AttributeError):
        pkt.rwnd_feild = 1                       # the typo this guards
    pkt.rwnd_field = 1
    assert not hasattr(pkt, "__dict__")


def test_packet_copy_and_pickle_round_trip_with_options():
    hop = ("sw.p0", 1500, 1200.0, 9000, 0.5, 1.2e-5)
    pkt = packet(ECN_ECT0, seq=7, ack=True,
                 pack=PackOption(total_bytes=10, marked_bytes=4),
                 sack_blocks=((100, 200), (300, 400)), int_stack=[hop])
    dup = pkt.copy()
    assert dup.pid != pkt.pid
    dup.pid = pkt.pid
    assert dup == pkt
    assert dup.pack is not pkt.pack and dup.int_stack is not pkt.int_stack
    dup.pack.marked_bytes = 9
    dup.int_stack.append(hop)
    assert pkt.pack.marked_bytes == 4 and pkt.int_stack == [hop]
    restored = pickle.loads(pickle.dumps(pkt))
    assert restored == pkt and restored.size == pkt.size
    assert restored.sack_blocks == ((100, 200), (300, 400))


# ---------------------------------------------------------------------------
# (e) Import surface
# ---------------------------------------------------------------------------
#: Also CI's one-liner (``tests`` job): prints what must not be there.
IMPORT_SURFACE = """
import sys
import {module}
print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))
"""
HEAVY = ("repro.analysis.checkers", "repro.analysis.project",
         "repro.analysis.lint", "multiprocessing",
         "concurrent.futures.process")
#: module -> what importing it must not import.  ``_hashlib`` (OpenSSL,
#: ~3.7 MiB resident) stays out of a run: a Scenario's key hashes lazily.
SURFACE = {"repro.experiments": HEAVY + ("_hashlib",),
           "repro.runtime": HEAVY}


@pytest.mark.parametrize("module", SURFACE)
def test_a_run_imports_neither_the_analyzer_nor_the_pool_machinery(module):
    source = IMPORT_SURFACE.format(module=module, prefixes=SURFACE[module])
    out = subprocess.run(
        [sys.executable, "-c", source],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_the_lazy_analysis_names_still_resolve():
    import repro.analysis as analysis
    for name in analysis.__all__:
        assert getattr(analysis, name) is not None
    with pytest.raises(AttributeError):
        analysis.no_such_name
