"""Self-tests for the `repro-lint` AST pass (repro.analysis).

Each rule gets a bad fixture it must fire on and a clean fixture it must
stay silent on; the suppression machinery, structural exemptions, report
format and CLI exit codes are covered too.
"""

import textwrap

import pytest

from repro.analysis import LintConfig, format_report, lint_source
from repro.analysis.__main__ import main as cli_main
from repro.analysis.rules import RULE_CATALOG


def lint(code, path="x.py", **cfg):
    return lint_source(textwrap.dedent(code), path=path,
                       config=LintConfig(**cfg))


def codes(violations):
    return [v.code for v in violations]


# ---------------------------------------------------------------------------
# RL001: raw sequence comparison / subtraction
# ---------------------------------------------------------------------------
class TestRL001:
    def test_ordered_comparison_fires(self):
        vs = lint("ok = pkt.seq < snd_una\n")
        assert codes(vs) == ["RL001"]

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_every_ordered_operator_fires(self, op):
        vs = lint(f"ok = snd_nxt {op} snd_una\n")
        assert codes(vs) == ["RL001"]

    def test_bare_subtraction_fires(self):
        vs = lint("outstanding = snd_nxt - snd_una\n")
        assert codes(vs) == ["RL001"]

    def test_attribute_chain_fires(self):
        vs = lint("gap = entry.conntrack.snd_nxt - base\n")
        assert codes(vs) == ["RL001"]

    def test_masked_subtraction_is_safe(self):
        vs = lint("outstanding = (snd_nxt - snd_una) & SEQ_MASK\n")
        assert vs == []

    def test_masked_with_extra_terms_is_safe(self):
        vs = lint("d = (snd_nxt - snd_una + offset) & SEQ_MASK\n")
        assert vs == []

    def test_equality_is_safe(self):
        # == / != are wrap-safe on sequence numbers.
        vs = lint("dup = pkt.ack_seq == snd_una\n")
        assert vs == []

    def test_all_caps_constants_are_safe(self):
        # SEQ_HALF / SEQ_MASK are the wrap-idiom *constants*, not state.
        vs = lint("wrapped = over >= SEQ_HALF\n")
        assert vs == []

    def test_serial_helper_call_is_safe(self):
        vs = lint("ok = seq_lt(pkt.ack_seq, snd_una)\n")
        assert vs == []

    def test_count_identifiers_are_safe(self):
        # Byte/event counters that merely contain "ack" never match.
        vs = lint("more = newly_acked - ack_count\n")
        assert vs == []

    def test_packet_module_is_structurally_exempt(self):
        bad = "delta = seq_a - seq_b\n"
        assert codes(lint(bad, path="src/repro/net/packet.py")) == []
        assert codes(lint(bad, path="src/repro/net/other.py")) == ["RL001"]


# ---------------------------------------------------------------------------
# RL002: nondeterministic RNG
# ---------------------------------------------------------------------------
class TestRL002:
    def test_module_level_call_fires(self):
        vs = lint("import random\nx = random.random()\n")
        assert codes(vs) == ["RL002"]

    def test_unseeded_random_fires(self):
        vs = lint("import random\nrng = random.Random()\n")
        assert codes(vs) == ["RL002"]

    def test_seeded_random_is_not_rl002(self):
        # Seeded construction is deterministic (no RL002) — but it still
        # bypasses the stream registry, which is RL006's domain.
        vs = lint("import random\nrng = random.Random(42)\n")
        assert codes(vs) == ["RL006"]

    def test_system_random_fires(self):
        vs = lint("import random\nrng = random.SystemRandom()\n")
        assert codes(vs) == ["RL002"]

    def test_from_import_function_fires(self):
        vs = lint("from random import choice\npick = choice(items)\n")
        assert codes(vs) == ["RL002"]

    def test_aliased_import_fires(self):
        vs = lint("import random as rnd\nx = rnd.shuffle(items)\n")
        assert codes(vs) == ["RL002"]

    def test_rng_registry_is_structurally_exempt(self):
        bad = "import random\nx = random.Random()\n"
        assert codes(lint(bad, path="src/repro/sim/rng.py")) == []

    def test_unrelated_module_attr_is_safe(self):
        # `random` methods on some other object never match.
        vs = lint("x = numpy.random()\n")
        assert vs == []


# ---------------------------------------------------------------------------
# RL003: wall-clock access
# ---------------------------------------------------------------------------
class TestRL003:
    @pytest.mark.parametrize("call", ["time.time()", "time.monotonic()",
                                      "time.perf_counter()",
                                      "time.time_ns()"])
    def test_time_module_calls_fire(self, call):
        vs = lint(f"import time\nt = {call}\n")
        assert codes(vs) == ["RL003"]

    def test_datetime_now_fires(self):
        vs = lint("import datetime\nt = datetime.datetime.now()\n")
        assert codes(vs) == ["RL003"]

    def test_from_datetime_import_fires(self):
        vs = lint("from datetime import datetime\nt = datetime.utcnow()\n")
        assert codes(vs) == ["RL003"]

    def test_from_time_import_fires(self):
        vs = lint("from time import monotonic\nt = monotonic()\n")
        assert codes(vs) == ["RL003"]

    def test_time_sleep_is_safe(self):
        # Only the clock reads are flagged, not every `time.` attribute.
        vs = lint("import time\ntime.sleep(1)\n")
        assert vs == []

    def test_engine_clock_is_safe(self):
        vs = lint("t = sim.now\n")
        assert vs == []


# ---------------------------------------------------------------------------
# RL004: exact equality between sim timestamps
# ---------------------------------------------------------------------------
class TestRL004:
    def test_two_timestamps_fire(self):
        vs = lint("same = fire_at == sim.now\n")
        assert codes(vs) == ["RL004"]

    def test_not_equal_fires(self):
        vs = lint("moved = start_time != stop_time\n")
        assert codes(vs) == ["RL004"]

    def test_one_sided_is_safe(self):
        # Comparing a timestamp against a constant (0.0 sentinel) is fine.
        vs = lint("fresh = sim.now == 0.0\n")
        assert vs == []

    def test_ordering_is_safe(self):
        vs = lint("due = fire_at <= sim.now\n")
        assert vs == []


# ---------------------------------------------------------------------------
# RL005: mutable default arguments
# ---------------------------------------------------------------------------
class TestRL005:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()",
                                         "dict()", "[x for x in y]"])
    def test_mutable_defaults_fire(self, default):
        vs = lint(f"def f(a, b={default}):\n    pass\n")
        assert codes(vs) == ["RL005"]

    def test_kwonly_default_fires(self):
        vs = lint("def f(*, b=[]):\n    pass\n")
        assert codes(vs) == ["RL005"]

    def test_lambda_default_fires(self):
        vs = lint("f = lambda a=[]: a\n")
        assert codes(vs) == ["RL005"]

    def test_immutable_defaults_are_safe(self):
        vs = lint("def f(a=None, b=(), c=0, d='x'):\n    pass\n")
        assert vs == []


# ---------------------------------------------------------------------------
# RL006: non-snapshot-safe state
# ---------------------------------------------------------------------------
class TestRL006:
    @pytest.mark.parametrize("value", ["{}", "[]", "set()", "dict()",
                                       "deque()", "itertools.count(1)"])
    def test_module_level_registry_fires(self, value):
        vs = lint(f"_registry = {value}\n")
        assert codes(vs) == ["RL006"]

    def test_annotated_registry_fires(self):
        vs = lint("_seen: dict = {}\n")
        assert codes(vs) == ["RL006"]

    def test_all_caps_constant_is_safe(self):
        # Configuration-by-convention: read-only module constants.
        vs = lint("EVENT_SCHEMAS = {'a': 1}\n")
        assert vs == []

    def test_dunder_is_safe(self):
        vs = lint("__all__ = ['x']\n")
        assert vs == []

    def test_class_and_function_scope_are_safe(self):
        # Instance/class containers are reachable from the object graph a
        # snapshot pickles; only module scope escapes it.
        vs = lint("class C:\n"
                  "    registry = {}\n"
                  "    def f(self):\n"
                  "        local = {}\n"
                  "        return local\n")
        assert vs == []

    def test_global_statement_fires(self):
        vs = lint("_serial = 0\n"
                  "def bump():\n"
                  "    global _serial\n"
                  "    _serial += 1\n")
        assert codes(vs) == ["RL006"]

    def test_seeded_random_construction_fires(self):
        vs = lint("import random\nrng = random.Random(seed)\n")
        assert codes(vs) == ["RL006"]

    def test_from_import_random_construction_fires(self):
        vs = lint("from random import Random\nrng = Random(7)\n")
        assert codes(vs) == ["RL006"]

    def test_from_import_unseeded_is_rl002(self):
        vs = lint("from random import Random\nrng = Random()\n")
        assert codes(vs) == ["RL002"]

    def test_rng_registry_is_structurally_exempt(self):
        bad = ("import random\n"
               "rng = random.Random(42)\n"
               "_streams = {}\n")
        assert codes(lint(bad, path="src/repro/sim/rng.py")) == []
        assert codes(lint(bad, path="src/repro/sim/other.py")) == [
            "RL006", "RL006"]

    def test_suppression_with_reason(self):
        vs = lint("_ids = itertools.count(1)"
                  "  # repro-lint: disable=RL006 (debug label, never state)\n")
        assert vs == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
class TestSuppression:
    BAD = "ahead = snd_nxt - snd_una"

    def test_inline_with_reason_suppresses(self):
        vs = lint(f"{self.BAD}  # repro-lint: disable=RL001 (test fixture)\n")
        assert vs == []

    def test_standalone_line_above_suppresses(self):
        vs = lint("# repro-lint: disable=RL001 (test fixture)\n"
                  f"{self.BAD}\n")
        assert vs == []

    def test_reason_is_required(self):
        vs = lint(f"{self.BAD}  # repro-lint: disable=RL001\n")
        # The disable is ignored AND itself reported.
        assert sorted(codes(vs)) == ["RL000", "RL001"]

    def test_file_level_suppresses_everywhere(self):
        vs = lint("# repro-lint: disable-file=RL001 (linear space here)\n"
                  f"{self.BAD}\n"
                  f"{self.BAD}\n")
        assert vs == []

    def test_suppression_is_code_specific(self):
        vs = lint(f"{self.BAD}  # repro-lint: disable=RL003 (wrong code)\n")
        assert codes(vs) == ["RL001"]

    def test_multiple_codes_one_comment(self):
        src = ("import time\n"
               "t = time.time() - snd_una"
               "  # repro-lint: disable=RL001,RL003 (fixture)\n")
        assert lint(src) == []


# ---------------------------------------------------------------------------
# Config, parse errors, report, CLI
# ---------------------------------------------------------------------------
def test_select_restricts_rules():
    src = "import random\nx = random.random()\nd = snd_nxt - snd_una\n"
    assert codes(lint(src, select=("RL002",))) == ["RL002"]
    assert codes(lint(src, select=("RL001",))) == ["RL001"]


def test_parse_error_reported_as_rl999():
    vs = lint("def broken(:\n")
    assert codes(vs) == ["RL999"]


def test_report_is_sorted_and_stable():
    src = ("import random\n"
           "d = snd_nxt - snd_una\n"
           "x = random.random()\n")
    report = format_report(lint(src, path="pkg/mod.py"))
    lines = report.splitlines()
    assert lines[0].startswith("pkg/mod.py:2:")
    assert "RL001" in lines[0]
    assert lines[1].startswith("pkg/mod.py:3:")
    assert "RL002" in lines[1]
    assert lines[-1] == "repro-lint: 2 violations"
    # Deterministic across invocations.
    assert report == format_report(lint(src, path="pkg/mod.py"))


def test_report_singular_summary():
    report = format_report(lint("d = snd_nxt - snd_una\n"))
    assert report.splitlines()[-1] == "repro-lint: 1 violation"


def test_report_empty():
    assert format_report([]) == "repro-lint: 0 violations"


def test_rule_catalog_covers_all_emitted_codes():
    assert set(RULE_CATALOG) == {
        "RL000", "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
        "RL999"}


class TestCli:
    def write(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_text(textwrap.dedent(body))
        return str(path)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", "x = 1\n")
        assert cli_main(["analyze", str(tmp_path)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_violations_exit_one_sorted(self, tmp_path, capsys):
        self.write(tmp_path, "b.py", "d = snd_nxt - snd_una\n")
        self.write(tmp_path, "a.py", "import random\nx = random.random()\n")
        assert cli_main(["analyze", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        # a.py before b.py: the report is file:line sorted.
        assert "a.py" in out[0] and "RL002" in out[0]
        assert "b.py" in out[1] and "RL001" in out[1]
        assert out[-1] == "repro-lint: 2 violations"

    def test_unknown_rule_exits_two(self, tmp_path):
        self.write(tmp_path, "ok.py", "x = 1\n")
        assert cli_main(["analyze", "--select", "RL777", str(tmp_path)]) == 2

    def test_no_subcommand_exits_two(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert cli_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CATALOG:
            assert code in out

    def test_select_filters(self, tmp_path, capsys):
        self.write(tmp_path, "m.py",
                   "import random\nx = random.random()\n"
                   "d = snd_nxt - snd_una\n")
        assert cli_main(["analyze", "--select", "RL001", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "RL002" not in out
