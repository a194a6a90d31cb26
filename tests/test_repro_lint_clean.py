"""The source tree itself must be `repro-lint` clean.

``lint_paths`` is the per-file subset (RL000–RL006) of the CI step
``python -m repro.analysis analyze src/``: any new raw sequence
comparison, ad-hoc RNG, wall-clock read, timestamp equality, mutable
default or non-snapshot-safe module state landing in ``src/repro``
fails here with the full file:line report.
"""

import os

from repro.analysis import format_report, lint_paths

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "repro")


def test_source_tree_is_lint_clean():
    violations = lint_paths([SRC])
    assert violations == [], "\n" + format_report(violations)


def test_suppressions_in_tree_all_carry_reasons():
    # RL000 findings would already fail the test above; this documents
    # the intent explicitly: a bare `disable=` never lands in-tree.
    assert not [v for v in lint_paths([SRC]) if v.code == "RL000"]
