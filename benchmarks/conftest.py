"""Benchmark-suite helpers.

Every benchmark regenerates one of the paper's tables or figures: it runs
the experiment once under pytest-benchmark (the timing of interest is the
simulation itself), prints the paper-shaped rows/series, and asserts the
qualitative shape (who wins, by roughly what factor).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

#: ``REPRO_BENCH_QUICK=1`` shrinks the ``BENCH_*.json`` writers' scenarios
#: to CI smoke scale.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def bench_report_fixture(file_name: str, schema: str, results: dict,
                         host_info: bool = False, **header):
    """A session fixture that writes ``results`` to ``file_name`` (under
    ``$REPRO_BENCH_DIR``, default the working directory) at session end,
    if the module recorded any.  ``header`` fields ride beside the
    schema; ``host_info`` adds the wall-clock stamp and host fingerprint
    that absolute (not ratio) measurements need to be compared."""

    @pytest.fixture(scope="session", autouse=True)
    def bench_report():
        yield
        if not results:
            return
        payload = {"schema": schema, "quick": QUICK, **header,
                   "results": results}
        if host_info:
            payload["unix_time"] = time.time()
            payload["host"] = {
                "python": sys.version.split()[0],
                "implementation": platform.python_implementation(),
                "platform": platform.platform(),
                "cpus": os.cpu_count(),
            }
        path = Path(os.environ.get("REPRO_BENCH_DIR", ".")) / file_name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"\nwrote {path}")

    return bench_report


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark fixture.

    The experiments are deterministic and expensive; statistical timing
    over many rounds would measure the simulator, not the paper.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit(capsys, text: str) -> None:
    """Print experiment output past pytest's capture."""
    with capsys.disabled():
        print()
        print(text)
