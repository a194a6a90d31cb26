"""The source tree itself must be analyzer clean.

Tier-1 twin of the CI step ``python -m repro.analysis analyze src/``:
any new raw sequence comparison, ad-hoc RNG or wall-clock read,
cross-file determinism leak, trace-schema drift, unguarded
zero-cost-off hook or unpicklable callable in checkpointed state landing
in ``src/repro`` fails here with the full file:line report.  Every
finding must be fixed (or suppressed with a written reason).
"""

import ast
import os

from repro.analysis import analyze_paths, format_report

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")


def test_source_tree_is_analyzer_clean():
    violations, stats = analyze_paths([SRC])
    assert violations == [], "\n" + format_report(
        violations, tool="repro-analysis")
    assert stats.modules > 50  # the walk actually covered the tree


def test_each_module_is_parsed_exactly_once(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    _violations, stats = analyze_paths([SRC])
    assert len(parsed) == len(set(parsed)) == stats.modules > 50
