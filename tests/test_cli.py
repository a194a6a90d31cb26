"""Tests for the `python -m repro.experiments` convenience CLI."""

import json

import pytest

import repro.experiments.__main__ as cli
from repro.experiments.__main__ import EXPERIMENTS, _shorten, main
from repro.runtime import Experiment, RunSpec

#: Cells the echo cell executed in this process.
EXECUTED = []


def _echo(seed, scale):
    """Cell: what it was asked to run."""
    EXECUTED.append(seed)
    return {"seed": seed, "scale": scale}


def _cells(seed, scale):
    return [RunSpec(f"{__name__}:_echo", {"seed": seed, "scale": scale})]


def _only(results, **_):
    return results[0]


#: Scratch registry entries: one without a quick mode, one with.
SCRATCH = {
    "plain": Experiment(_cells, _only, {"scale": 1}),
    "quickable": Experiment(_cells, _only, {"scale": 1}, quick={"scale": 0}),
}


@pytest.fixture
def scratch(monkeypatch):
    monkeypatch.setattr(cli, "EXPERIMENTS", {**EXPERIMENTS, **SCRATCH})
    EXECUTED.clear()


def _json(capsys, *argv):
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_list_enumerates_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(EXPERIMENTS)
    # Every §5 figure/table is runnable from the CLI.
    for required in ("fig01", "fig08", "table1", "fig18-19", "fig23"):
        assert required in out


def test_unknown_experiment_fails_cleanly(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_usage_errors_are_returned_not_raised(capsys):
    assert main([]) == 2
    assert main(["fig08", "--no-such-flag"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0


def test_shorten_truncates_long_lists():
    value = {"samples": list(range(5000)), "n": 1}
    short = _shorten(value, limit=10)
    assert len(short["samples"]) == 11
    assert "5000 items" in short["samples"][-1]
    assert short["n"] == 1


def test_registry_functions_are_callable():
    for name, fn in EXPERIMENTS.items():
        assert callable(fn), name


def test_every_entry_is_cells_plus_a_reducer():
    for name, entry in EXPERIMENTS.items():
        assert isinstance(entry, Experiment), name
    assert {n for n, e in EXPERIMENTS.items() if e.traces} == {
        "fig09", "int-attribution"}
    assert {n for n, e in EXPERIMENTS.items() if e.quick} == {
        "fig09", "hybrid", "int-attribution", "chaos", "adversarial",
        "gameday"}


def test_type_error_inside_an_entry_propagates_and_runs_it_once(monkeypatch):
    # Regression: the CLI caught any TypeError and re-ran the entry with
    # every default, printing a full-scale seed-0 result and exiting 0.
    calls = []

    def entry(**kwargs):
        calls.append(kwargs)
        raise TypeError("raised inside the experiment")

    monkeypatch.setitem(cli.EXPERIMENTS, "demo", entry)
    with pytest.raises(TypeError, match="inside the experiment"):
        main(["demo", "--seed", "7", "--quick", "--json"])
    assert len(calls) == 1
    assert calls[0]["seed"] == 7 and calls[0]["quick"] is True


def test_unknown_parameter_is_refused():
    with pytest.raises(TypeError, match="no_such_knob"):
        SCRATCH["plain"](no_such_knob=1)


def test_seed_reaches_the_cells(scratch, capsys):
    assert _json(capsys, "plain", "--seed", "7") == {"seed": 7, "scale": 1}


def test_seeds_give_the_multi_seed_shape(scratch, capsys):
    assert _json(capsys, "plain", "--seeds", "0,1") == {
        "seeds": [0, 1],
        "per_seed": [{"seed": 0, "scale": 1}, {"seed": 1, "scale": 1}]}


def test_quick_applies_only_the_overrides_an_entry_declares(scratch, capsys):
    assert _json(capsys, "quickable", "--quick")["scale"] == 0
    assert _json(capsys, "plain", "--quick")["scale"] == 1


def test_warm_cache_rerun_executes_no_cell(scratch, capsys, tmp_path):
    argv = ("plain", "--seeds", "3,4", "--cache-dir", str(tmp_path))
    cold = _json(capsys, *argv)
    assert EXECUTED == [3, 4]
    assert _json(capsys, *argv) == cold
    assert EXECUTED == [3, 4]


def test_trace_on_an_entry_that_cannot_trace_is_usage_error(
        scratch, capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    assert main(["plain", "--trace", str(path)]) == 2
    assert "does not support --trace" in capsys.readouterr().err
    assert not path.exists() and EXECUTED == []
