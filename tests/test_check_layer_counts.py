"""``tools/check_layer_counts.py`` fails a traced run whose per-cycle count exceeds its pin."""

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


@pytest.mark.parametrize(("calls", "status"), [(22, 0), (21, 0), (23, 1)])
def test_paper_u_mse_calls_are_held_to_22(tmp_path, capsys, calls, status):
    write_results(tmp_path, {"paper-u": {"regression.mse.calls": calls}})
    assert tool.main(["--results", str(tmp_path)]) == status
    out = capsys.readouterr().out
    assert ("paper-u: regression.mse.calls is 23 per cycle, pinned at 22" in out) == (status == 1)


def test_a_missing_result_fails(tmp_path, capsys):
    write_results(tmp_path, {})
    (tmp_path / "small-many-seed1-trace1.json").unlink()
    assert tool.main(["--results", str(tmp_path)]) == 1
    assert "small-many: no traced result" in capsys.readouterr().out
