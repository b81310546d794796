import csv
import io
import json
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import reference_ingest

from regmarket import (
    InvalidInputError,
    LagSpec,
    MarketConfig,
    ReservationSchedule,
    SyntheticSpec,
    build_lag_matrix,
    clear_market,
    ingest_csv,
    load_scenario,
    synthetic_market_series,
    to_agent_series,
    write_outcome_table,
)
from regmarket.data_io import ScenarioConfig, TwoAgentGrid

ZONES = ("DK1", "DK2", "SE1")


def write_csv(path, rows, header=("timestamp",) + ZONES):
    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def complete_rows(n, start=100):
    rng = np.random.default_rng(0)
    values = rng.uniform(10.0, 500.0, size=(n, len(ZONES)))
    return [
        (start + t, *[repr(float(v)) for v in values[t]]) for t in range(n)
    ], values


class TestIngestCsv:
    def test_complete_file_is_lossless(self, tmp_path):
        rows, values = complete_rows(48)
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows))
        assert report.dropped_rows == 0
        assert report.dataset.n_hours == 48
        assert report.dataset.zones == ZONES
        assert np.array_equal(report.dataset.values, values)
        assert np.array_equal(report.dataset.timestamps, np.arange(100, 148))

    def test_iso_timestamps(self, tmp_path):
        rows = [
            ("2021-06-01T00:00", 1.0, 2.0, 3.0),
            ("2021-06-01T01:00", 4.0, 5.0, 6.0),
            ("2021-06-01 02:00:00", 7.0, 8.0, 9.0),
        ]
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows))
        stamps = report.dataset.timestamps
        assert np.array_equal(np.diff(stamps), [1, 1])

    def test_missing_cells_drop_the_row(self, tmp_path):
        rows, _ = complete_rows(48)
        rows[10] = (rows[10][0], "", rows[10][2], "")  # two empty cells, one row
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows))
        assert report.dataset.n_hours == 47
        assert report.dropped_rows == 1

    def test_per_zone_max_normalization(self, tmp_path):
        rows, _ = complete_rows(30)
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows), normalization="per-zone-max")
        assert np.all(report.dataset.values.max(axis=0) == 1.0)

    def test_schema_remapping(self, tmp_path):
        rows, values = complete_rows(5)
        report = ingest_csv(
            write_csv(tmp_path / "wind.csv", rows),
            schema={"DK1": "west", "SE1": "north"},
        )
        assert report.dataset.zones == ("west", "north")
        assert np.array_equal(report.dataset.values[:, 0], values[:, 0])
        assert np.array_equal(report.dataset.values[:, 1], values[:, 2])

    def test_missing_schema_column_named(self, tmp_path):
        rows, _ = complete_rows(5)
        with pytest.raises(InvalidInputError, match="NO_SUCH"):
            ingest_csv(write_csv(tmp_path / "wind.csv", rows), schema={"NO_SUCH": "x"})

    def test_non_monotonic_rejected(self, tmp_path):
        rows, _ = complete_rows(5)
        rows[3], rows[2] = rows[2], rows[3]
        with pytest.raises(InvalidInputError, match="non-monotonic"):
            ingest_csv(write_csv(tmp_path / "wind.csv", rows))

    def test_heavy_dropping_raises_warning(self, tmp_path):
        rows, _ = complete_rows(20)
        rows = [
            (ts, "", dk2, se1) if t % 3 == 0 else (ts, dk1, dk2, se1)
            for t, (ts, dk1, dk2, se1) in enumerate(rows)
        ]
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows))
        assert report.dropped_rows == 7
        assert report.warnings and "dropped" in report.warnings[0]

    def test_garbage_and_non_finite_cells_drop(self, tmp_path):
        rows, _ = complete_rows(6)
        rows[1] = (rows[1][0], "oops", rows[1][2], rows[1][3])
        rows[4] = (rows[4][0], "inf", rows[4][2], rows[4][3])
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows))
        assert report.dropped_rows == 2
        assert report.dataset.n_hours == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            ingest_csv(path)

    def test_no_timestamp_column_rejected(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="timestamp"):
            ingest_csv(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "nope.csv")

    def test_non_monotonic_error_names_the_pair(self, tmp_path):
        rows, _ = complete_rows(5)
        rows[3], rows[2] = rows[2], rows[3]
        with pytest.raises(InvalidInputError, match=r"hour 102 follows hour 103"):
            ingest_csv(write_csv(tmp_path / "wind.csv", rows))

    def test_no_usable_rows_error_counts_drops(self, tmp_path):
        rows = [(100, "", 1.0, 2.0), (101, "x", 1.0, 2.0), (102, 1.0, "nan", 2.0)]
        with pytest.raises(InvalidInputError, match=r"no usable data rows \(3 dropped\)"):
            ingest_csv(write_csv(tmp_path / "wind.csv", rows))

    def test_hour_outside_int64_drops_the_row(self, tmp_path):
        rows = [(2**63, 1.0, 2.0, 3.0), (-(2**63) - 1, "nan", 2.0, 3.0), (5, 1.0, 2.0, 3.0)]
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows))
        assert report.dropped_rows == 2
        assert report.dataset.timestamps.tolist() == [5]

    def test_peak_memory_stays_near_the_dataset(self, tmp_path):
        # Streaming keeps no per-row Python objects: the peak is the value
        # block plus buffer slack. Materialising the rows first costs ~16x.
        values = np.random.default_rng(0).uniform(0.0, 500.0, size=(20_000, 15))
        lines = ["timestamp," + ",".join(f"Z{k:02d}" for k in range(15))]
        lines += [f"{t}," + ",".join(map(repr, row.tolist())) for t, row in enumerate(values)]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            report = ingest_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(report.dataset.values, values)
        assert peak < 4 * report.dataset.values.nbytes


class TestUtcOffsets:
    def dataset(self, tmp_path, stamps):
        rows = [(stamp, 1.0, 2.0, 3.0) for stamp in stamps]
        return ingest_csv(write_csv(tmp_path / "wind.csv", rows)).dataset

    def test_autumn_dst_sequence_is_contiguous(self, tmp_path):
        stamps = [
            "2021-10-31T01:00+02:00",
            "2021-10-31T02:00+02:00",
            "2021-10-31T02:00+01:00",  # same wall clock, one hour later
            "2021-10-31T03:00+01:00",
        ]
        assert np.array_equal(np.diff(self.dataset(tmp_path, stamps).timestamps), [1, 1, 1])

    def test_spring_dst_sequence_is_contiguous(self, tmp_path):
        stamps = [
            "2021-03-28T00:00+01:00",
            "2021-03-28T01:00+01:00",
            "2021-03-28T03:00+02:00",  # 02:00 local never happens
            "2021-03-28T04:00+02:00",
        ]
        dataset = self.dataset(tmp_path, stamps)
        assert np.array_equal(np.diff(dataset.timestamps), [1, 1, 1])
        start = int(dataset.timestamps[1])
        series = to_agent_series(dataset, start=start, window_length=3, max_lag=1)
        assert all(s.values.shape == (4,) for s in series)

    def test_utc_spellings_and_naive_stamp_agree(self, tmp_path):
        for stamps in (
            ("2021-06-01T05:00Z", "2021-06-01T05:00+00:00", "2021-06-01T05:00"),
            ("2021-06-01T05:30+05:30", "2021-06-01T00:00Z"),
        ):
            hours = {int(self.dataset(tmp_path, [stamp]).timestamps[0]) for stamp in stamps}
            assert len(hours) == 1

    def test_offset_must_leave_a_whole_utc_hour(self, tmp_path):
        rows = [("2021-06-01T05:00+05:30", 1.0, 2.0, 3.0), ("2021-06-01T06:00Z", 1.0, 2.0, 3.0)]
        report = ingest_csv(write_csv(tmp_path / "wind.csv", rows))
        assert report.dropped_rows == 1
        assert report.dataset.n_hours == 1


# Differential test: ingest_csv against the row-by-row reference reader.
# "\x1c" is whitespace to str.strip() but not to float().
_PADDING = st.sampled_from(["", "", "", "", " ", "\t", "\x1c", "\u00a0", "\u2003"])
_NUMBER = st.one_of(st.floats(-100.0, 1e6, allow_nan=False).map(repr), st.integers(-5, 500).map(str))
_VALUE = st.one_of(
    _NUMBER,
    _NUMBER,
    _NUMBER,
    st.sampled_from(["", "x1", "nan", "NaN", "inf", "-inf", "1e400", "1_000", ".5", "--1"]),
)
_ISO_KINDS = ("iso",) * 4 + ("utc", "offset", "offset", "int", "minute", "compact", "junk", "empty")
_INT_KINDS = ("int",) * 8 + ("junk", "empty", "clock", "huge")


def _stamp(kind, hour, offset_hours):
    """Render hour index ``hour`` as a timestamp cell of the given kind."""
    if kind == "int":
        return str(hour)
    if kind in ("junk", "empty", "clock", "huge"):
        return {"junk": "junk", "empty": "", "clock": "5:00", "huge": str(2**63 + hour)}[kind]
    when = datetime.fromordinal(hour // 24) + timedelta(hours=hour % 24)
    if kind == "iso":
        return when.isoformat()
    if kind == "utc":
        return when.strftime("%Y-%m-%dT%H:%MZ")
    if kind == "offset":
        zone = timezone(timedelta(hours=offset_hours))
        return when.replace(tzinfo=timezone.utc).astimezone(zone).isoformat()
    if kind == "minute":
        return (when + timedelta(minutes=30)).isoformat()
    return when.strftime("%Y%m%d")  # compact: an integer, not a date


@st.composite
def zonal_files(draw):
    """CSV text, an optional schema and a normalization for one ingest."""
    n_zones = draw(st.integers(1, 4))
    names = [f"Z{k}" for k in range(n_zones)]
    header = names[:]
    header.insert(draw(st.integers(0, n_zones)), "timestamp")
    if draw(st.booleans()):
        kinds, hour = _ISO_KINDS, 17_706_984 + draw(st.integers(-48, 48))
    else:
        kinds, hour = _INT_KINDS, draw(st.integers(-30, 30))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(("row",) * 6 + ("blank", "spaces", "ragged")))
        if shape == "blank":
            lines.append([])
            continue
        if shape == "spaces":
            lines.append([draw(_PADDING) for _ in range(draw(st.integers(1, 3)))])
            continue
        hour += draw(st.sampled_from((1, 1, 1, 2, 0, -1)))
        cells = [draw(_VALUE) for _ in names]
        stamp = _stamp(draw(st.sampled_from(kinds)), hour, draw(st.integers(-12, 14)))
        cells.insert(header.index("timestamp"), stamp)
        cells = [draw(_PADDING) + cell + draw(_PADDING) for cell in cells]
        if shape == "ragged":
            cells = (cells + ["7.0", ""])[: draw(st.integers(0, len(cells) + 2))]
        lines.append(cells)
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    )
    writer.writerow(header)
    writer.writerows(lines)
    schema = None
    if draw(st.booleans()):
        subset = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        schema = {name: f"zone-{name}" for name in subset}  # drawn order, not header order
    return buffer.getvalue(), schema, draw(st.sampled_from(["none", "per-zone-max"]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=zonal_files())
def test_ingest_matches_reference_reader(tmp_path, case):
    text, schema, normalization = case
    path = tmp_path / "zones.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_ingest(path, schema=schema, normalization=normalization)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            ingest_csv(path, schema=schema, normalization=normalization)
        return
    zones, hours, values, dropped, warnings = expected
    report = ingest_csv(path, schema=schema, normalization=normalization)
    assert report.dataset.zones == zones
    assert report.dataset.timestamps.tobytes() == hours.tobytes()
    assert report.dataset.values.shape == values.shape
    assert report.dataset.values.tobytes() == values.tobytes()
    assert report.dropped_rows == dropped
    assert report.warnings == warnings


class TestToAgentSeries:
    def test_window_sizes(self, tmp_path):
        rows, _ = complete_rows(300)
        dataset = ingest_csv(write_csv(tmp_path / "wind.csv", rows)).dataset
        series = to_agent_series(dataset, start=103, window_length=240, max_lag=3)
        assert [s.agent_id for s in series] == list(ZONES)
        assert all(s.values.shape == (243,) for s in series)
        assert all(s.start_time == 3 for s in series)

    def test_window_at_dataset_start_rejected(self, tmp_path):
        rows, _ = complete_rows(50)
        dataset = ingest_csv(write_csv(tmp_path / "wind.csv", rows)).dataset
        with pytest.raises(InvalidInputError, match="needs hours"):
            to_agent_series(dataset, start=100, window_length=10, max_lag=2)

    def test_gap_inside_window_rejected(self, tmp_path):
        rows, _ = complete_rows(50)
        del rows[20]
        dataset = ingest_csv(write_csv(tmp_path / "wind.csv", rows)).dataset
        with pytest.raises(InvalidInputError, match="gap"):
            to_agent_series(dataset, start=105, window_length=40, max_lag=2)

    def test_round_trip_against_raw_cells(self, tmp_path):
        rows, values = complete_rows(60)
        dataset = ingest_csv(write_csv(tmp_path / "wind.csv", rows)).dataset
        start, T, D = 110, 30, 2
        series = to_agent_series(dataset, start=start, window_length=T, max_lag=D)
        design = build_lag_matrix(series, LagSpec(max_lag=D, window_length=T))
        rng = np.random.default_rng(5)
        for _ in range(20):
            row = int(rng.integers(0, T))
            zone_index = int(rng.integers(0, len(ZONES)))
            lag = int(rng.integers(1, D + 1))
            column = design.column_of(ZONES[zone_index], lag)
            # Hour of this cell in file coordinates: (start + row) - lag,
            # and the file's first hour is 100.
            file_row = start + row - lag - 100
            assert design.values[row, column] == values[file_row, zone_index]


class TestWriteOutcomeTable:
    def _outcome(self, max_lag=1, seed=0, u=0.1, n_supports=4):
        spec = SyntheticSpec(
            seed=seed,
            n_independent=n_supports,
            ar_coefficients=(0.5, 0.3, 0.3, 0.3, 0.3)[:n_supports],
            noise_std=(0.4, 1.0, 1.0, 2.0, 1.0)[:n_supports],
            cross_coefficients=(0.4, 0.3, 0.2, 0.1, 0.2)[:n_supports],
        )
        lag = LagSpec(max_lag=max_lag, window_length=120)
        roster = synthetic_market_series(spec, history=max_lag, window=120)
        config = MarketConfig("P1", spec.agent_ids[1:], lag)
        schedule = ReservationSchedule.uniform(config.support_agents, max_lag, u)
        return clear_market(config, roster, schedule)

    def test_single_outcome_row_counts(self, tmp_path):
        outcome = self._outcome(max_lag=1)
        path = tmp_path / "out.csv"
        write_outcome_table([("u", 0.1, outcome)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# columns:")
        assert lines[1].split(",")[0] == "sweep_param"
        data = lines[2:]
        assert len(data) == 4 + 1  # one row per support agent (D=1) plus buyer row

    def test_sweep_row_counts(self, tmp_path):
        outcome = self._outcome(max_lag=1, n_supports=5)
        rows = [("u", 0.1 * (k + 1), outcome) for k in range(10)]
        path = tmp_path / "sweep.csv"
        write_outcome_table(rows, path)
        data = path.read_text(encoding="utf-8").splitlines()[2:]
        payment_rows = [line for line in data if line.split(",")[3] != ""]
        assert len(payment_rows) == 50  # 10 sweep points x 5 support agents at D=1

    def test_rewrite_is_byte_identical(self, tmp_path):
        outcome = self._outcome(max_lag=2)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_outcome_table([("u", 0.1, outcome)], first)
        write_outcome_table([("u", 0.1, outcome)], second)
        assert first.read_bytes() == second.read_bytes()

    def test_buyer_row_contents(self, tmp_path):
        outcome = self._outcome(max_lag=1)
        path = tmp_path / "out.csv"
        write_outcome_table([("u", 0.1, outcome)], path)
        buyer = path.read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert buyer[2] == "P1"
        assert float(buyer[6]) == outcome.total_payments
        assert float(buyer[7]) == outcome.baseline_loss.mse
        assert float(buyer[8]) == outcome.market_loss.mse
        assert float(buyer[9]) == outcome.buyer_net_gain

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_outcome_table([], tmp_path / "out.csv")


SCENARIO = {
    "scenario_id": "unit",
    "seed": 3,
    "out_dir": "results",
    "data": {"type": "synthetic"},
    "market": {"central_agent": "P1", "max_lag": 3, "window": 240},
    "reservations": {"uniform_u": 0.1},
    "sweeps": {"u_grid": [0.0, 0.1, 0.5], "t_grid": [120, 240]},
}


def write_scenario(tmp_path, overrides=None, **kwargs):
    payload = json.loads(json.dumps(SCENARIO))
    payload.update(kwargs)
    if overrides:
        for dotted, value in overrides.items():
            node = payload
            *parents, leaf = dotted.split(".")
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestScenarioConfig:
    def test_load_round_trip(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path))
        assert scenario.scenario_id == "unit"
        assert scenario.synthetic.seed == 3
        assert scenario.lag_spec == LagSpec(max_lag=3, window_length=240)
        assert scenario.uniform_u == 0.1
        assert scenario.u_grid == (0.0, 0.1, 0.5)
        assert scenario.t_grid == (120, 240)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="typo"):
            load_scenario(write_scenario(tmp_path, typo=1))

    def test_unknown_market_key_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="window_hours"):
            load_scenario(write_scenario(tmp_path, overrides={"market.window_hours": 1}))

    def test_grid_must_increase(self, tmp_path):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            load_scenario(write_scenario(tmp_path, overrides={"sweeps.u_grid": [0.2, 0.1]}))

    def test_explicit_reservations(self, tmp_path):
        path = write_scenario(
            tmp_path, reservations={"entries": [["P2", 1, 0.25], ["P3", 2, 0.5]]}
        )
        scenario = load_scenario(path)
        assert scenario.reservations.get("P2", 1) == 0.25
        assert scenario.uniform_u is None

    def test_exactly_one_source(self):
        with pytest.raises(InvalidInputError, match="one data source"):
            ScenarioConfig(
                scenario_id="x",
                central_agent="P1",
                lag_spec=LagSpec(1, 10),
                synthetic=SyntheticSpec(),
                csv_path="also.csv",
            )
        with pytest.raises(InvalidInputError, match="one data source"):
            ScenarioConfig(scenario_id="x", central_agent="P1", lag_spec=LagSpec(1, 10))

    def test_default_uniform_u(self):
        scenario = ScenarioConfig(
            scenario_id="x",
            central_agent="P1",
            lag_spec=LagSpec(1, 10),
            synthetic=SyntheticSpec(),
        )
        assert scenario.uniform_u == 0.1

    def test_with_seed_reseeds_synthetic(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path)).with_seed(99)
        assert scenario.seed == 99
        assert scenario.synthetic.seed == 99

    def test_market_config_resolution(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path))
        config = scenario.market_config(["P1", "P2", "P3", "P4", "P5"])
        assert config.support_agents == ("P2", "P3", "P4", "P5")
        with pytest.raises(InvalidInputError):
            scenario.market_config(["P2", "P3"])

    def test_two_agent_grid_validation(self):
        with pytest.raises(InvalidInputError):
            TwoAgentGrid("A", "A", (0.1,), (0.1,))
        with pytest.raises(InvalidInputError):
            TwoAgentGrid("A", "B", (), (0.1,))
