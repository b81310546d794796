"""``tools/check_layer_counts.py`` fails a traced run whose per-cycle count is off its pin."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_layer_counts.py"
spec = importlib.util.spec_from_file_location("check_layer_counts", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def write_results(directory, counts):
    """One traced result per pinned workload, at its pins but for ``counts``."""
    for workload, pins in tool.PINS.items():
        values = {**pins, **counts.get(workload, {})}
        metrics = {name: {"value": float(value), "unit": "1/cycle"} for name, value in values.items()}
        (directory / f"{workload}-seed1-trace1.json").write_text(json.dumps({"metrics": metrics}), encoding="utf-8")


@pytest.mark.parametrize(("calls", "status"), [(3, 0), (2, 1), (4, 1)])
def test_paper_u_mse_calls_are_held_to_3(tmp_path, capsys, calls, status):
    # One baseline MSE per prepared market (clear, sweep-u, grid-2), none per clearing.
    write_results(tmp_path, {"paper-u": {"regression.mse.calls": calls}})
    assert tool.main(["--results", str(tmp_path)]) == status
    out = capsys.readouterr().out
    assert (f"paper-u: regression.mse.calls is {calls} per cycle, pinned at 3" in out) == (status == 1)


@pytest.mark.parametrize(("workload", "pin"), [("paper-u", 19), ("small-many", 22)])
def test_a_solve_count_below_its_pin_fails(tmp_path, capsys, workload, pin):
    # A refactor that stops calling through the traced name reads 0.
    assert tool.PINS[workload]["regression.weighted_lasso_fit.calls"] == pin
    write_results(tmp_path, {workload: {"regression.weighted_lasso_fit.calls": 0}})
    assert tool.main(["--results", str(tmp_path)]) == 1
    assert f"{workload}: regression.weighted_lasso_fit.calls is 0 per cycle, pinned at {pin}" in capsys.readouterr().out


@pytest.mark.parametrize("workload", ["paper-u", "small-many"])
def test_a_clear_that_stops_calling_through_clear_market_fails(tmp_path, capsys, workload):
    # The clear command clears through market.clear_market, once per cycle.
    assert tool.PINS[workload]["market.clear_market.calls"] == 1
    write_results(tmp_path, {workload: {"market.clear_market.calls": 0}})
    assert tool.main(["--results", str(tmp_path)]) == 1
    assert f"{workload}: market.clear_market.calls is 0 per cycle, pinned at 1" in capsys.readouterr().out


def test_a_second_lag_matrix_in_the_training_sweep_fails(tmp_path, capsys):
    # sweep-t clears every window on row prefixes of its one prepared market,
    # which builds two lag matrices: the buyer's own block, then the roster's
    # design. Preparing each of its five windows afresh would build ten.
    write_results(tmp_path, {"csv-t": {"timeseries.build_lag_matrix.calls": 10}})
    assert tool.main(["--results", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "csv-t: timeseries.build_lag_matrix.calls is 10 per cycle, pinned at 2" in out
    assert "layer counts: 1 problem(s) in 3 workloads" in out


def test_a_missing_result_fails(tmp_path, capsys):
    write_results(tmp_path, {})
    (tmp_path / "small-many-seed1-trace1.json").unlink()
    assert tool.main(["--results", str(tmp_path)]) == 1
    assert "small-many: no traced result" in capsys.readouterr().out
