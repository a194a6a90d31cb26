"""Adversarial-tenant sweep: guard on/off under misbehaving guests.

Headline claim: at a 25% violator share, conforming tenants keep >= 80%
of their fair share with the guard enabled, versus near-total collapse
without it — and every guard decision is a deterministic, auditable
event stream.
"""

from conftest import emit, run_once
from repro.experiments import adversarial as exp
from repro.experiments.report import format_table


def test_bench_adversarial(benchmark, capsys):
    result = run_once(benchmark, lambda: exp.run(seed=0))
    sweep, detection, pressure = (
        result["sweep"], result["detection"], result["pressure"])

    rows = [[name, round(p["conforming_retention"], 3), round(p["jain"], 3),
             round(p["violating_mean_bps"] / 1e6, 1),
             round(p["conforming_mean_bps"] / 1e6, 1),
             sum(p["guard_events"].values())]
            for name, p in sweep.items()]
    emit(capsys, format_table(
        ["point", "conforming_retention", "jain", "violator_mbps",
         "conforming_mbps", "guard_events"],
        rows, title="Adversarial tenants — ignore_rwnd sweep"))
    rows = [[name, dict(p["guard_events"]), p.get("fallbacks", 0)]
            for name, p in detection.items()]
    emit(capsys, format_table(
        ["adversary", "guard_events", "fallbacks"], rows,
        title="Detection-only adversaries (25% share, guard on)"))

    # --- headline: protection of the conforming majority ----------------
    on = sweep["share=0.25,guard=on"]
    off = sweep["share=0.25,guard=off"]
    assert on["conforming_retention"] >= 0.8
    assert off["conforming_retention"] < 0.2
    assert on["jain"] > off["jain"]
    # Cheaters are contained, not merely diluted.
    assert on["violating_mean_bps"] < off["violating_mean_bps"] / 10
    assert on["guard_events"]["guard.escalate"] >= 2
    assert on["police_drops"] > 0
    assert all(level >= 2 for _, level, _ in on["final_levels"])

    # --- zero false positives on an all-conforming tenant mix -----------
    clean = sweep["share=0,guard=on"]
    assert clean["guard_events"] == {}
    assert clean["police_drops"] == 0
    assert clean["quarantine_drops"] == 0
    # And the guard costs conforming tenants nothing.
    baseline = sweep["share=0,guard=off"]
    assert clean["conforming_mean_bps"] >= 0.95 * baseline["conforming_mean_bps"]

    # --- the guard holds as the violator share grows ---------------------
    heavy = sweep["share=0.5,guard=on"]
    assert heavy["conforming_retention"] >= 0.8
    assert heavy["violating_mean_bps"] < sweep[
        "share=0.5,guard=off"]["violating_mean_bps"] / 10

    # --- detection-only adversaries are surfaced as guard events ---------
    assert detection["ack_division"]["guard_events"]["guard.escalate"] >= 1
    assert detection["ack_division"]["quarantine_drops"] > 0
    assert detection["ecn_bleach"]["guard_events"]["guard.escalate"] >= 1
    assert detection["option_strip"]["fallbacks"] >= 1
    assert detection["option_strip"]["guard_events"][
        "guard.feedback_fallback"] >= 1

    # --- watchdog: deliberate shedding keeps traffic flowing -------------
    assert pressure["sheds"] > 0
    assert pressure["shed_entries"] > 0
    assert pressure["guard_events"]["guard.shed"] == pressure["sheds"]
    assert pressure["total_goodput_bps"] > 0.6e9

    # --- same seed, same transition history ------------------------------
    a = exp.run_point(0.25, True, seed=0, n_senders=4, duration=0.08)
    b = exp.run_point(0.25, True, seed=0, n_senders=4, duration=0.08)
    assert a["event_signature"] == b["event_signature"]
