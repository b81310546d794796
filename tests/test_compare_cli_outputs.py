"""``tools/compare_cli_outputs.py`` sizes a difference in values only, and calls every other one structural."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_cli_outputs.py"
spec = importlib.util.spec_from_file_location("compare_cli_outputs", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

TABLE = b"# columns: agent,coefficient\nagent,coefficient\nP2,0.5\nP3,-2.0\n"


def test_csv_value_difference_is_scaled_by_its_column():
    size, line = tool.value_difference(TABLE, TABLE.replace(b"0.5", b"0.5000000002"), is_csv=True)
    assert size == pytest.approx(1e-10)
    assert "'coefficient'" in line


def test_stdout_numbers_are_scaled_by_their_own_magnitude():
    size, _ = tool.value_difference(b"baseline mse 0.25, wrote 9\n", b"baseline mse 0.2500001, wrote 9\n", is_csv=False)
    assert size == pytest.approx(4e-7)


@pytest.mark.parametrize(
    "other",
    [
        TABLE.replace(b"P3", b"P4"),  # a text cell
        TABLE.replace(b"agent,coefficient\nP2", b"agent,beta\nP2"),  # the header
        TABLE + b"P4,1.0\n",  # the row count
        TABLE.replace(b"P2,0.5", b"P2,0.5,1"),  # a row's cell count
        TABLE.replace(b"0.5", b""),  # a number against an empty cell
    ],
    ids=["text-cell", "header", "row-count", "cell-count", "emptied-cell"],
)
def test_any_other_difference_is_structural(other):
    assert tool.value_difference(TABLE, other, is_csv=True) is None


def test_value_only_differences_are_still_reported():
    run = (0, b"wrote x\n", b"", {"u_sweep.csv": TABLE})
    changed = (0, b"wrote x\n", b"", {"u_sweep.csv": TABLE.replace(b"-2.0", b"-2.000001")})
    lines, sizes = tool.differences({("in", "sweep-u"): run}, {("in", "sweep-u"): changed})
    assert len(lines) == len(sizes) == 1
    assert "values only" in lines[0]
