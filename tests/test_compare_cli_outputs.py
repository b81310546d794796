"""``tools/compare_cli_outputs.py`` sizes a difference in values only, calls every other one structural, rewrites ISO stamps as the hours ingest reads, offsets value cells, writes inputs whose prices every command rejects, and a near-collinear CSV."""

import json
from pathlib import Path

import numpy as np
import pytest

from regmarket import PreparedMarket, ingest_csv
from regmarket.data_io import load_scenario
from regmarket.experiments import materialize_series
from regmarket.cli import main

from conftest import load_module

ROOT = Path(__file__).resolve().parents[1]
tool = load_module("compare_cli_outputs", "tools", "compare_cli_outputs.py")

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


def test_integer_stamps_ingest_as_the_iso_ones(tmp_path):
    # Hours across a leap day and a year end, with one blank cell whose row drops.
    iso = tmp_path / "iso.csv"
    iso.write_text(
        "timestamp,A,B\n2020-02-28T23:00:00,1.5,-2\n2020-02-29T00:00:00,,3\n"
        "2020-03-01T07:00:00,0.25,1e3\n2020-12-31T23:00:00,4,5\n2021-01-01T00:00:00,6,7\n",
        encoding="utf-8",
    )
    hours = tmp_path / "hours.csv"
    tool.write_integer_stamps(iso, hours)
    assert hours.read_text(encoding="utf-8").splitlines()[1].split(",")[0] == str(24 * 737483 + 23)
    a, b = ingest_csv(iso), ingest_csv(hours)
    assert a.dropped_rows == b.dropped_rows == 1
    assert a.dataset.timestamps.tolist() == b.dataset.timestamps.tolist()
    assert a.dataset.values.tobytes() == b.dataset.values.tobytes()


def test_offset_cells_add_the_offset_to_each_value_cell(tmp_path):
    source = tmp_path / "zones.csv"
    source.write_text("timestamp,A,B\n2020-02-28T23:00:00,1.5000,-2.2500\n2020-02-29T00:00:00,,3.0001\n", encoding="utf-8")
    shifted = tmp_path / "offset.csv"
    tool.write_offset_cells(source, shifted, 1e4)
    assert shifted.read_text(encoding="utf-8") == (
        "timestamp,A,B\n2020-02-28T23:00:00,10001.5000,9997.7500\n2020-02-29T00:00:00,,10003.0001\n"
    )


OVERFLOW = "prices must be at most 2.996155224770526e+306, above which the penalty (T/2) * u at T=120 is not finite"


@pytest.mark.parametrize(
    ("label", "message"),
    [
        ("entries-twice", "invalid value (reservations.entries price agent 'P2' lag 1.0 more than once)"),
        ("price-overflow", OVERFLOW),
    ],
)
def test_rejected_prices_inputs_exit_2_with_the_rule_they_break(tmp_path, capsys, label, message):
    config = tmp_path / f"{label}.json"
    config.write_text(json.dumps(tool.rejected_prices(tool.readme_scenario(ROOT))[label]), encoding="utf-8")
    assert main(["clear", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"


def test_collinear_input_adds_a_near_copy_of_p2_as_a_seller(tmp_path):
    readme = tool.readme_scenario(ROOT)
    config = tmp_path / "collinear.json"
    config.write_text(json.dumps(tool.write_collinear(ROOT, readme, tmp_path)), encoding="utf-8")
    dataset = ingest_csv(tmp_path / "collinear.csv").dataset
    assert dataset.zones == ("P1", "P2", "P3", "P4", "P5", "P6")
    assert dataset.n_hours == readme["market"]["max_lag"] + max(readme["sweeps"]["t_grid"])
    gap = dataset.values[:, 5] - dataset.values[:, 1]
    assert 0.0 < np.std(gap) < 2 * tool.COLLINEAR_NOISE
    scenario = load_scenario(config)
    market = PreparedMarket(scenario.market, materialize_series(scenario))
    assert market.config.support_agents == ("P2", "P3", "P4", "P5", "P6")
