import csv
import io
import json
import re
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
    MarketOutcome,
    PreparedMarket,
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
from regmarket import data_io
from regmarket.data_io import CsvSource, ScenarioConfig, TwoAgentGrid, ZonalDataset, write_rows, write_zonal_csv

ZONES = ("DK1", "DK2", "SE1")

# Text a CSV writer must quote or keep as it is: a comma, a quote, a line
# break, a leading space, and the empty string.
AWKWARD_TEXT = st.sampled_from(["P2", "a,b", 'say "hi"', "two\nlines", " lead", ""]) | st.text(
    alphabet=st.sampled_from(list('ab,"\n\r ;')), max_size=5
)
# Floats whose shortest repr takes each form: a signed zero, the smallest
# subnormal, an exponent, and a plain 1.0; and any other finite float.
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1e308, 1.0]) | st.floats(allow_nan=False, allow_infinity=False)


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

    @pytest.mark.parametrize(
        ("header", "repeated"),
        [(("timestamp", "A", "A", "B"), "A"), (("timestamp", "A", "timestamp"), "timestamp")],
        ids=["zone", "stamp"],
    )
    @pytest.mark.parametrize("schema", [None, {"A": "west"}], ids=["all-columns", "schema"])
    def test_header_repeating_a_read_column_rejected(self, tmp_path, header, repeated, schema):
        rows = [(100 + t, *[1.0] * (len(header) - 1)) for t in range(3)]
        path = write_csv(tmp_path / "wind.csv", rows, header=header)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: header repeats column '{repeated}'$"):
            ingest_csv(path, schema=schema)

    @pytest.mark.parametrize(("header", "schema"), [(("timestamp",), None), (("timestamp", "A"), {})],
                             ids=["stamp-only", "empty-schema"])
    def test_no_zone_column_rejected(self, tmp_path, header, schema):
        path = write_csv(tmp_path / "wind.csv", [(100 + t, *[1.0] * (len(header) - 1)) for t in range(3)], header=header)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: no zone columns$"):
            ingest_csv(path, schema=schema)

    def test_header_repeating_an_unread_column_accepted(self, tmp_path):
        rows = [(100 + t, 1.0, 2.0, 3.0) for t in range(3)]
        path = write_csv(tmp_path / "wind.csv", rows, header=("timestamp", "A", "A", "B"))
        report = ingest_csv(path, schema={"B": "east"})
        assert report.dataset.zones == ("east",)
        assert report.dataset.values[:, 0].tolist() == [3.0, 3.0, 3.0]

    @pytest.mark.parametrize(
        ("header", "row", "column"),
        [(("timestamp", "A", "B", ""), (1.0, 2.0, ""), 4), (("timestamp", "A", "", "B"), (1.0, 9.0, 2.0), 3)],
        ids=["trailing-comma", "between-zones"],
    )
    def test_unnamed_column_is_rejected_unless_a_schema_skips_it(self, tmp_path, header, row, column):
        path = write_csv(tmp_path / "wind.csv", [(100 + t, *row) for t in range(3)], header=header)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: header column {column} has no name$"):
            ingest_csv(path)
        report = ingest_csv(path, schema={"A": "west", "B": "east"})
        assert report.dataset.zones == ("west", "east")
        assert report.dataset.values.tolist() == [[1.0, 2.0]] * 3
        assert report.dropped_rows == 0

    @pytest.mark.parametrize("stamps", ["integer", "iso"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, stamps):
        # Spreadsheet "CSV UTF-8" exports start with one; it must not stick to the header's first name.
        rows, _ = complete_rows(48)
        if stamps == "iso":
            rows = [(f"2021-06-{1 + t // 24:02d}T{t % 24:02d}:00:00", *cells) for t, (_, *cells) in enumerate(rows)]
        plain = write_csv(tmp_path / "plain.csv", rows)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, report = ingest_csv(plain), ingest_csv(marked)
        assert report.dataset.zones == expected.dataset.zones == ZONES
        assert report.dataset.timestamps.tobytes() == expected.dataset.timestamps.tobytes()
        assert report.dataset.values.tobytes() == expected.dataset.values.tobytes()
        assert report.dropped_rows == expected.dropped_rows == 0

    def test_non_monotonic_rejected(self, tmp_path):
        rows, _ = complete_rows(5)
        rows[3], rows[2] = rows[2], rows[3]
        with pytest.raises(InvalidInputError, match=r"strictly increasing \(hour 102 follows hour 103\)"):
            ingest_csv(write_csv(tmp_path / "wind.csv", rows))

    def test_schema_mapping_two_columns_to_one_zone_rejected(self, tmp_path):
        rows, _ = complete_rows(5)
        path = write_csv(tmp_path / "wind.csv", rows)
        with pytest.raises(InvalidInputError) as caught:
            ingest_csv(path, schema={"DK1": "east", "DK2": "east", "SE1": "SE1"})
        assert str(caught.value) == f"{path}: zones lists 'east' more than once"

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

    @pytest.mark.parametrize(
        ("body", "message"),
        [
            (b"100,1.0,2.0,3.0\n101,1.\xff,2.0,3.0\n", "not UTF-8 text (byte 0xff)"),
            (b'100,1.0,2.0,"' + b"1" * 140_000 + b'"\n', "field larger than field limit"),
        ],
        ids=["byte-0xff", "oversized-quoted-cell"],
    )
    def test_unreadable_file_rejected_naming_it(self, tmp_path, body, message):
        path = tmp_path / "wind.csv"
        path.write_bytes(b"timestamp,DK1,DK2,SE1\n" + body)
        with pytest.raises(InvalidInputError) as caught:
            ingest_csv(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert message in str(caught.value)

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

    @staticmethod
    def wide_csv(tmp_path):
        """A 20,000-hour, 15-zone CSV of positive values, and those values."""
        values = np.random.default_rng(0).uniform(0.0, 500.0, size=(20_000, 15))
        lines = ["timestamp," + ",".join(f"Z{k:02d}" for k in range(15))]
        lines += [f"{t}," + ",".join(map(repr, row.tolist())) for t, row in enumerate(values)]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, values

    @staticmethod
    def traced_ingest(path, normalization="none"):
        """The ingest report of ``path`` and the traced peak of the ingest."""
        tracemalloc.start()
        try:
            report = ingest_csv(path, normalization=normalization)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return report, peak

    def test_peak_memory_stays_near_the_dataset(self, tmp_path):
        # Streaming keeps no per-row Python objects: the peak is the value
        # block plus buffer slack. Materialising the rows first costs ~16x.
        path, values = self.wide_csv(tmp_path)
        report, peak = self.traced_ingest(path)
        assert np.array_equal(report.dataset.values, values)
        assert peak < 4 * report.dataset.values.nbytes

    def test_normalizing_keeps_the_peak_of_a_plain_ingest(self, tmp_path):
        # Each zone is divided by its peak in place, not into a second value block.
        path, values = self.wide_csv(tmp_path)
        ingest_csv(path, normalization="per-zone-max")  # leaves one-off allocations out of both peaks
        plain, plain_peak = self.traced_ingest(path)
        scaled, scaled_peak = self.traced_ingest(path, normalization="per-zone-max")
        assert np.array_equal(scaled.dataset.values, values / values.max(axis=0))
        assert scaled_peak - plain_peak < 0.25 * plain.dataset.values.nbytes


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


# Edge cases of the block parser, each checked against the row-by-row reader.
def assert_matches_reference(path, schema=None):
    """ingest_csv gives the reference reader's dataset bit for bit, or both reject the file."""
    try:
        zones, hours, values, dropped, warnings = reference_ingest(path, schema=schema)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            ingest_csv(path, schema=schema)
        return None
    report = ingest_csv(path, schema=schema)
    assert report.dataset.zones == zones
    assert report.dataset.timestamps.tobytes() == hours.tobytes()
    assert report.dataset.values.tobytes() == values.tobytes()
    assert report.dropped_rows == dropped
    assert report.warnings == warnings
    return report


def iso_lines(n, start=datetime(2019, 1, 1), seed=0):
    """``n`` hourly lines as ``datetime.isoformat()`` and ``f"{v:.4f}"`` write them."""
    values = np.random.default_rng(seed).normal(0.0, 3.0, size=(n, len(ZONES)))
    return [
        ",".join([(start + timedelta(hours=t)).isoformat(), *(f"{v:.4f}" for v in row)])
        for t, row in enumerate(values.tolist())
    ]


def write_lines(path, lines, newline="\n", header="timestamp," + ",".join(ZONES)):
    path.write_bytes(newline.join([header, *lines, ""]).encode("utf-8"))
    return path


class TestBlockParser:
    @pytest.mark.parametrize(
        "stamp",
        [
            "0000-01-01T05:00:00",
            "2019-01-01T24:00:00",
            "2019-02-29T00:00:00",
            "2019-04-31T00:00:00",
            "2019-01-01T05:00:00.5",
            "2019-01-01T06:00:00+01:00",  # 05:00 UTC, the hour of the line it replaces
            "2019-1-01T05:00:00",
        ],
    )
    def test_stamps_the_screen_must_not_take(self, tmp_path, stamp):
        lines = iso_lines(10)
        lines[5] = stamp + lines[5][19:]
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", lines))
        assert report is not None

    def test_calendar_edges(self, tmp_path):
        # Every month 0-13, day 0-32 and hour 0/23/24 of years around the
        # leap-year rules; the invalid stamps drop, the rest stay in order.
        stamps = [
            (year, month, day, hour)
            for year in (0, 1, 4, 100, 400, 1900, 2000, 2019, 2020, 2100, 9999)
            for month in range(14)
            for day in range(33)
            for hour in (0, 23, 24)
        ]
        lines = [f"{y:04d}-{m:02d}-{d:02d}T{h:02d}:00:00,1.5,-2.0,3e2" for y, m, d, h in stamps]
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", lines))
        leap_days = 2 * 4  # 4, 400, 2000 and 2020 have a Feb 29
        assert report.dataset.n_hours == 10 * 365 * 2 + leap_days

    @pytest.mark.parametrize(
        "cell",
        ["1_000", "1.e5", "+.5", "-0", "1e", "--1", "1e400", "١", "#3", " 1.5 ", "\x1c2.5\x1c", "0x1p3"],
    )
    def test_values(self, tmp_path, cell):
        lines = iso_lines(10)
        head, _, tail = lines[4].partition(",")
        lines[4] = ",".join([head, cell, tail.split(",", 1)[1]])
        assert_matches_reference(write_lines(tmp_path / "z.csv", lines))

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        lines = iso_lines(3)
        lines[1] = lines[1][:20] + "-0,-0.0,+0"
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", lines))
        assert np.signbit(report.dataset.values[1]).tolist() == [True, True, False]

    def test_crlf_line_ends(self, tmp_path):
        lines = iso_lines(20)
        lines[7] = lines[7].replace(",", ",,", 1)  # one empty cell
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", lines, newline="\r\n"))
        assert report.dropped_rows == 1

    def test_lone_cr_ends_a_line(self, tmp_path):
        lines = iso_lines(6)
        lines[2] = lines[2] + "\r" + lines[3]
        del lines[3]
        assert assert_matches_reference(write_lines(tmp_path / "z.csv", lines)).dataset.n_hours == 6

    def test_extra_trailing_columns(self, tmp_path):
        lines = iso_lines(10)
        lines[3] += ",9.5"
        lines[6] += ",,x"
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", lines))
        assert report.dropped_rows == 0

    def test_quoted_cell_with_a_newline(self, tmp_path):
        lines = iso_lines(10)
        lines[4] = lines[4][:20] + '"1.5\n",2.5,3.5'
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", lines))
        assert report.dataset.values[4].tolist() == [1.5, 2.5, 3.5]

    def test_quoted_cell_holding_a_plain_line(self, tmp_path):
        lines = iso_lines(10)
        lines[4] = lines[4][:20] + f'"1.5\n{lines[5]}\n",2.5,3.5'  # one cell, so the row drops
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", lines))
        assert report.dropped_rows == 1

    def test_stamp_outside_the_first_column(self, tmp_path):
        # The first column holds ISO stamps, but the hours come from the last.
        lines = [f"{line},{100 + t}" for t, line in enumerate(iso_lines(10))]
        header = ",".join(["when", *ZONES, "timestamp"])
        path = write_lines(tmp_path / "z.csv", lines, header=header)
        report = assert_matches_reference(path, schema={zone: zone for zone in ZONES})
        assert report.dataset.timestamps.tolist() == list(range(100, 110))

    @pytest.mark.parametrize("stamps", ["iso", "integer"])
    def test_leading_byte_order_mark(self, tmp_path, stamps):
        lines = iso_lines(10)
        if stamps == "integer":
            lines = [f"{100 + t},{line[20:]}" for t, line in enumerate(lines)]
        path = write_lines(tmp_path / "z.csv", lines, header="\ufefftimestamp," + ",".join(ZONES))
        assert path.read_bytes().startswith(b"\xef\xbb\xbftimestamp,")
        assert assert_matches_reference(path).dataset.n_hours == 10

    def test_cr_only_line_ends(self, tmp_path):
        report = assert_matches_reference(write_lines(tmp_path / "z.csv", iso_lines(10), newline="\r"))
        assert report.dataset.n_hours == 10

    def test_schema_with_the_stamp_as_a_zone(self, tmp_path):
        path = write_lines(tmp_path / "z.csv", iso_lines(5))
        assert_matches_reference(path, schema={"timestamp": "t", "DK1": "a"})

    def test_file_of_several_blocks(self, tmp_path):
        # Lines that end a block, straddle the cut or start the next one
        # carry an empty cell, an underscore, junk, a blank line or a bad
        # stamp; the last line has no newline.
        lines = iso_lines(4 * data_io._BLOCK_CHARS // 40, seed=1)
        header = "timestamp," + ",".join(ZONES)
        offsets = np.cumsum([len(header) + 1] + [len(line) + 1 for line in lines])
        edits = ("{},,{},{}", "{},1_000,{},{}", "junk,{},{},{}", "", "2019-02-30T00:00:00,{},{},{}")
        for block in (1, 2, 3):
            straddler = int(np.searchsorted(offsets, len(header) + 1 + block * data_io._BLOCK_CHARS)) - 1
            for k, line in enumerate(range(straddler - 2, straddler + 3)):
                cells = lines[line].split(",")
                lines[line] = edits[(k + block) % len(edits)].format(cells[0], *cells[2:])
        path = tmp_path / "z.csv"
        path.write_text("\n".join([header, *lines]), encoding="utf-8")
        assert path.stat().st_size > 3 * data_io._BLOCK_CHARS
        report = assert_matches_reference(path)
        assert report.dropped_rows == 3 * 3

    def test_quoted_cell_across_a_block_cut(self, tmp_path):
        # The first block takes the screen. The second block's text ends
        # inside a quoted cell, just after the newline the cell holds.
        lines = iso_lines(3 * data_io._BLOCK_CHARS // 40, seed=2)
        header = "timestamp," + ",".join(ZONES)
        offsets = np.cumsum([len(header) + 1] + [len(line) + 1 for line in lines])
        end = len(header) + 1 + 2 * data_io._BLOCK_CHARS  # of the text read by then
        line = int(np.searchsorted(offsets, end - 400))
        padding = " " * 300
        lines[line] = lines[line][:20] + f'"{padding}\n1.25{padding}",2.5,3.5'
        path = write_lines(tmp_path / "z.csv", lines)
        newline_in_cell = offsets[line] + 21 + len(padding)
        assert newline_in_cell < end < newline_in_cell + len(padding)
        report = assert_matches_reference(path)
        assert report.dataset.values[line].tolist() == [1.25, 2.5, 3.5]


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
        return clear_market(config, roster, ReservationSchedule(default=u))

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
        assert float(buyer[7]) == outcome.market.baseline_mse
        assert float(buyer[8]) == outcome.market_mse
        assert float(buyer[9]) == outcome.buyer_net_gain

    @pytest.mark.parametrize(("max_lag", "n_supports"), [(1, 4), (3, 2), (2, 5)])
    def test_one_feature_row_per_payment_at_every_point(self, tmp_path, max_lag, n_supports):
        outcome = self._outcome(max_lag=max_lag, n_supports=n_supports)
        path = tmp_path / "out.csv"
        write_outcome_table([("u", 0.1, outcome), ("u", 0.2, outcome)], path)
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()[2:]))
        assert len(rows) == 2 * (len(outcome.payments) + 1)
        for point in (rows[: len(rows) // 2], rows[len(rows) // 2 :]):
            feature_rows = [row for row in point if row[3] != ""]
            assert len(feature_rows) == len(outcome.payments) == n_supports * max_lag
            assert [(row[2], int(row[3])) for row in feature_rows] == list(outcome.market.seller_features)
            assert [float(row[6]) for row in feature_rows] == outcome.payments.tolist()

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_outcome_table([], tmp_path / "out.csv")

    @staticmethod
    def _hand_built(baseline_mse, coefficients, prices, payments, **fields):
        """An outcome on a one-seller market at ``max_lag=2``, holding only what the table reads.

        ``coefficients``, ``prices`` and ``payments`` are P2's at lags 1 and 2.
        """
        market = PreparedMarket.__new__(PreparedMarket)
        market.config = MarketConfig("P1", ("P2",), LagSpec(max_lag=2, window_length=10))
        market.baseline_mse = baseline_mse
        market.seller_features = (("P2", 1), ("P2", 2))
        market.seller_index = np.array([4, 3])  # intercept, P1 lags 2 and 1, P2 lags 2 and 1
        beta = np.array([0.5, 0.25, 0.75, coefficients[1], coefficients[0]])
        return MarketOutcome(
            market=market,
            market_beta=beta,
            market_mse=0.1 + 0.2,
            prices=np.array(prices),
            payments=np.array(payments),
            **fields,
        )

    def test_bytes_of_a_hand_built_outcome(self, tmp_path):
        outcome = self._hand_built(
            1.5, (-0.25, 0.0), (0.1, 1e-05), (0.025, 0.0), total_payments=0.025, buyer_net_gain=1.175
        )
        path = tmp_path / "out.csv"
        write_outcome_table([("T", 240, outcome), ("clearing", "", outcome)], path)
        columns = "sweep_param,sweep_value,agent,lag,coefficient,reservation,payment,baseline_mse,market_mse,buyer_net_gain"
        assert path.read_bytes().decode("utf-8") == (
            f"# columns: {columns}\n"
            f"{columns}\n"
            "T,240,P2,1,-0.25,0.1,0.025,,,\n"
            "T,240,P2,2,0.0,1e-05,0.0,,,\n"
            "T,240,P1,,,,0.025,1.5,0.30000000000000004,1.175\n"
            "clearing,,P2,1,-0.25,0.1,0.025,,,\n"
            "clearing,,P2,2,0.0,1e-05,0.0,,,\n"
            "clearing,,P1,,,,0.025,1.5,0.30000000000000004,1.175\n"
        )

    def test_bytes_of_edge_floats(self, tmp_path):
        # Every float cell is its shortest round-tripping repr: a signed zero,
        # the smallest subnormal, an exponent form and a rounded sum. The
        # grid-2 sweep name holds a comma, so it is quoted.
        outcome = self._hand_built(
            1e16, (-0.0, 1e16), (5e-324, 0.02), (0.0, 2e14), total_payments=2e14, buyer_net_gain=-0.0
        )
        path = tmp_path / "out.csv"
        write_outcome_table([("T", 8760, outcome), ("u(P2,P4)", "0.005;0.02", outcome)], path)
        rows = path.read_bytes().decode("utf-8").splitlines()[2:]
        assert rows == [
            "T,8760,P2,1,-0.0,5e-324,0.0,,,",
            "T,8760,P2,2,1e+16,0.02,200000000000000.0,,,",
            "T,8760,P1,,,,200000000000000.0,1e+16,0.30000000000000004,-0.0",
            '"u(P2,P4)",0.005;0.02,P2,1,-0.0,5e-324,0.0,,,',
            '"u(P2,P4)",0.005;0.02,P2,2,1e+16,0.02,200000000000000.0,,,',
            '"u(P2,P4)",0.005;0.02,P1,,,,200000000000000.0,1e+16,0.30000000000000004,-0.0',
        ]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        central=AWKWARD_TEXT,
        sellers=st.lists(AWKWARD_TEXT, min_size=1, max_size=3, unique=True),
        max_lag=st.integers(1, 3),
        points=st.lists(
            st.tuples(AWKWARD_TEXT, st.one_of(AWKWARD_TEXT, st.integers(), EDGE_FLOATS), st.booleans()),
            min_size=1,
            max_size=3,
        ),
        data=st.data(),
    )
    def test_bytes_are_csv_writers_bytes(self, tmp_path, central, sellers, max_lag, points, data):
        # Points alternate between two markets, so a market's cells are reused
        # across points that are not adjacent. The reference writes every row
        # through csv.writer, cell by cell.
        sellers = [agent for agent in sellers if agent != central] or [central + "'"]
        floats = st.lists(EDGE_FLOATS, min_size=max_lag * len(sellers), max_size=max_lag * len(sellers))
        markets = []
        for _ in range(2):
            market = PreparedMarket.__new__(PreparedMarket)
            market.config = MarketConfig(central, tuple(sellers), LagSpec(max_lag=max_lag, window_length=10))
            market.baseline_mse = data.draw(EDGE_FLOATS)
            market.seller_features = tuple((agent, lag) for agent in sellers for lag in range(1, max_lag + 1))
            market.seller_index = np.arange(1 + max_lag, 1 + max_lag + len(market.seller_features))[::-1].copy()
            markets.append(market)
        outcomes = []
        for param, value, second in points:
            market = markets[second]
            outcome = MarketOutcome(
                market=market,
                market_beta=np.array([1.0] * (1 + max_lag) + data.draw(floats)),
                market_mse=data.draw(EDGE_FLOATS),
                prices=np.array(data.draw(floats)),
                payments=np.array(data.draw(floats)),
                total_payments=data.draw(EDGE_FLOATS),
                buyer_net_gain=data.draw(EDGE_FLOATS),
            )
            outcomes.append((param, value, outcome))
        path = tmp_path / "out.csv"
        write_outcome_table(outcomes, path)

        expected = io.StringIO()
        expected.write("# columns: " + ",".join(data_io.OUTCOME_COLUMNS) + "\n")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(data_io.OUTCOME_COLUMNS)
        for param, value, outcome in outcomes:
            market = outcome.market
            beta = outcome.market_beta.tolist()
            columns = market.seller_index.tolist()
            cells = zip(market.seller_features, columns, outcome.prices.tolist(), outcome.payments.tolist())
            for (agent, lag), column, u, paid in cells:
                writer.writerow([param, value, agent, lag, beta[column], u, paid, "", "", ""])
            totals = [outcome.total_payments, market.baseline_mse, outcome.market_mse, outcome.buyer_net_gain]
            writer.writerow([param, value, central, "", "", "", *totals])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


class TestZonalDataset:
    def test_int64_timestamps_pass_through(self):
        stamps = np.array([2**62 + 1, 2**62 + 3], dtype=np.int64)  # above 2**53: a float would round them
        assert ZonalDataset(("A",), stamps, np.ones((2, 1))).timestamps is stamps

    def test_integer_list_is_read_exactly(self):
        stamps = [2**53 + 1, 2**53 + 3, 2**63 - 1]
        dataset = ZonalDataset(("A",), stamps, np.ones((3, 1)))
        assert dataset.timestamps.dtype == np.int64
        assert dataset.timestamps.tolist() == stamps

    def test_repeated_zone_rejected_naming_zones(self):
        # A repeated zone would be written as a header ingest rejects, and
        # would give a prepared market two series for one agent.
        with pytest.raises(InvalidInputError, match="^zones lists 'A' more than once$") as err:
            ZonalDataset(("A", "B", "A"), [100, 101], np.ones((2, 3)))
        assert err.value.field == "zones"

    def test_no_zones_rejected_naming_zones(self):
        # write_zonal_csv would write a header of no zone column, which ingest_csv rejects.
        with pytest.raises(InvalidInputError, match="^zones must name at least one zone$") as err:
            ZonalDataset((), [100, 101], np.ones((2, 0)))
        assert err.value.field == "zones"

    @pytest.mark.parametrize("timestamps", [[], np.zeros((1, 1), dtype=np.int64)], ids=["no-hour", "two-dimensional"])
    def test_no_hours_rejected_naming_timestamps(self, timestamps):
        with pytest.raises(InvalidInputError, match="^timestamps must hold at least one hour$") as err:
            ZonalDataset(("A",), timestamps, np.ones((0, 1)))
        assert err.value.field == "timestamps"

    def test_string_of_zones_rejected_naming_zones(self):
        # A bare string would otherwise be split into one zone per letter.
        with pytest.raises(InvalidInputError, match="^zones must be a list, got 'AB'$") as err:
            ZonalDataset(zones="AB", timestamps=[0, 1], values=[[1.0, 2.0], [3.0, 4.0]])
        assert err.value.field == "zones"


class TestCsvWriters:
    def test_zonal_csv_bytes_keep_the_hour_gap(self, tmp_path):
        dataset = ZonalDataset(
            zones=("DK1", "DK2"),
            timestamps=[100, 101, 103],
            values=[[0.5, -1.0], [1e-05, 2.0], [0.1 + 0.2, 3.0]],
        )
        path = tmp_path / "zones.csv"
        write_zonal_csv(dataset, path)
        assert path.read_bytes().decode("utf-8") == (
            "timestamp,DK1,DK2\n"
            "100,0.5,-1.0\n"
            "101,1e-05,2.0\n"
            "103,0.30000000000000004,3.0\n"
        )

    def test_write_rows_creates_the_directory(self, tmp_path):
        path = tmp_path / "missing" / "nested" / "rows.csv"
        rows = [{"T": 240, "agent": "P2", "payment": 0.5}, {"T": 240, "agent": "P1"}]
        write_rows(path, ("T", "agent", "payment"), rows)
        assert path.read_bytes().decode("utf-8") == "T,agent,payment\n240,P2,0.5\n240,P1,\n"


SCENARIO = {
    "scenario_id": "unit",
    "seed": 3,
    "out_dir": "results",
    "data": {"type": "synthetic"},
    "market": {"central_agent": "P1", "max_lag": 3, "window": 240},
    "reservations": {"uniform_u": 0.1},
    "sweeps": {"u_grid": [0.0, 0.1, 0.5], "t_grid": [120, 240]},
}


DROP = object()  # an override value that removes its key


def write_scenario(tmp_path, overrides=None, **kwargs):
    payload = json.loads(json.dumps(SCENARIO))
    payload.update(kwargs)
    if overrides:
        for dotted, value in overrides.items():
            node = payload
            *parents, leaf = dotted.split(".")
            for key in parents:
                node = node.setdefault(key, {})
            if value is DROP:
                del node[leaf]
            else:
                node[leaf] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


GRID2_KEYS = "['agent_a', 'agent_b', 'u_grid_a', 'u_grid_b']"
# Every structural rejection of a scenario file, by its text or its overrides, and the message after "<file>: ".
STRUCTURAL = {
    "invalid-json": ("{", "invalid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    "top-level-list": ("[]", "top level must be an object"),
    "repeated-key": (
        '{"data": {"type": "synthetic"}, "market": {"central_agent": "P1", "max_lag": 3, "window": 100, "window": 60}}',
        "an object repeats key 'window'",
    ),
    "data-scalar": ({"data": 5}, "invalid value (data must be an object, got 5)"),
    "market-list": ({"market": ["P1"]}, "invalid value (market must be an object, got ['P1'])"),
    "reservations-scalar": ({"reservations": 0.1}, "invalid value (reservations must be an object, got 0.1)"),
    "sweeps-list": ({"sweeps": [0.1]}, "invalid value (sweeps must be an object, got [0.1])"),
    "grid2-null": ({"sweeps.grid2": None}, "invalid value (sweeps.grid2 must be an object, got None)"),
    "no-data-type": ({"data.type": DROP}, "invalid value (data.type must be 'synthetic' or 'csv', got None)"),
    "other-data-type": ({"data.type": "excel"}, "invalid value (data.type must be 'synthetic' or 'csv', got 'excel')"),
    "csv-without-path": ({"data.type": "csv"}, "data: missing required key(s) ['path']"),
    "no-data": ({"data": DROP}, "missing required key(s) ['data']"),
    "no-market": ({"market": DROP}, "missing required key(s) ['market']"),
    "no-window": ({"market.window": DROP}, "market: missing required key(s) ['window']"),
    "both-reservations": (
        {"reservations.entries": [["P2", 1, 0.5]]}, "reservations: give exactly one of uniform_u or entries"
    ),
    "no-reservations": ({"reservations.uniform_u": DROP}, "reservations: give exactly one of uniform_u or entries"),
    "grid2-without-agents": ({"sweeps.grid2": {"others_u": 0.1}}, f"sweeps.grid2: missing required key(s) {GRID2_KEYS}"),
}


@pytest.mark.parametrize(("change", "message"), STRUCTURAL.values(), ids=STRUCTURAL.keys())
def test_structural_rejection_names_the_file(tmp_path, change, message):
    if isinstance(change, str):  # the whole file's text
        path = tmp_path / "scenario.json"
        path.write_text(change, encoding="utf-8")
    else:
        path = write_scenario(tmp_path, overrides=change)
    with pytest.raises(InvalidInputError) as caught:
        load_scenario(path)
    assert str(caught.value) == f"{path}: {message}"


class TestScenarioConfig:
    def test_load_round_trip(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path))
        assert scenario.scenario_id == "unit"
        assert scenario.data.seed == 3
        assert scenario.market.lag_spec == LagSpec(max_lag=3, window_length=240)
        assert scenario.reservations.default == 0.1
        assert scenario.u_grid == (0.0, 0.1, 0.5)
        assert scenario.t_grid == (120, 240)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="typo"):
            load_scenario(write_scenario(tmp_path, typo=1))

    def test_an_error_no_key_sets_is_labelled_with_the_file_and_keeps_its_field(self, tmp_path):
        path = tmp_path / "scenario.json"
        labelled = data_io.label_error(InvalidInputError("prices must be at most 1.0", "prices"), path)
        assert str(labelled) == f"{path}: prices must be at most 1.0"
        assert labelled.field == "prices"
        assert str(data_io.label_error(InvalidInputError("no field here"), str(path))) == f"{path}: no field here"

    def test_unknown_market_key_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="window_hours"):
            load_scenario(write_scenario(tmp_path, overrides={"market.window_hours": 1}))

    def test_grid_must_increase(self, tmp_path):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            load_scenario(write_scenario(tmp_path, overrides={"sweeps.u_grid": [0.2, 0.1]}))

    def test_integral_floats_read_as_integers(self, tmp_path):
        expected = load_scenario(write_scenario(tmp_path))
        overrides = {"market.max_lag": 3.0, "market.window": 240.0, "sweeps.t_grid": [120.0, 240]}
        scenario = load_scenario(write_scenario(tmp_path, overrides=overrides, seed=3.0))
        assert scenario == expected
        assert type(scenario.data.seed) is type(scenario.market.lag_spec.max_lag) is int

    def test_explicit_reservations(self, tmp_path):
        path = write_scenario(
            tmp_path, reservations={"entries": [["P2", 1, 0.25], ["P3", 2, 0.5]]}
        )
        scenario = load_scenario(path)
        assert scenario.reservations.entries.get(("P2", 1), 0.0) == 0.25
        assert scenario.reservations.default == 0.0

    def test_exactly_one_source(self):
        for data in (None, "wind.csv"):
            with pytest.raises(InvalidInputError, match="^data must be a SyntheticSpec or a CsvSource") as caught:
                ScenarioConfig(scenario_id="x", market=MarketConfig("P1", None, LagSpec(1, 10)), data=data)
            assert caught.value.field == "data"

    @pytest.mark.parametrize(
        ("fields", "field"),
        [
            ({"path": 5}, "path"),
            ({"path": "wind.csv", "schema": {"DK1": 1}}, "schema"),
            ({"path": "wind.csv", "normalization": "per-zone-min"}, "normalization"),
            ({"path": "wind.csv", "window_start": 2.5}, "window_start"),
        ],
        ids=["non-string-path", "non-string-zone", "unknown-normalization", "fractional-window-start"],
    )
    def test_csv_source_rejects_naming_the_field(self, fields, field):
        with pytest.raises(InvalidInputError, match=f"^{field} must ") as caught:
            CsvSource(**fields)
        assert caught.value.field == field

    def test_csv_scenario_holds_its_source(self, tmp_path):
        data = {"type": "csv", "path": "wind.csv", "schema": {"DK1": "west"}, "normalization": "per-zone-max"}
        path = write_scenario(tmp_path, data={**data, "window_start": 17689446.0})
        scenario = load_scenario(path)
        assert scenario.data == CsvSource("wind.csv", {"DK1": "west"}, "per-zone-max", 17689446)
        assert type(scenario.data.window_start) is int
        assert load_scenario(path, seed=99) == scenario

    def test_default_reservation_price(self):
        scenario = ScenarioConfig(
            scenario_id="x",
            market=MarketConfig("P1", None, LagSpec(1, 10)),
            data=SyntheticSpec(),
        )
        assert scenario.reservations == ReservationSchedule(default=0.1)

    def test_seed_argument_reseeds_synthetic(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path), seed=99)
        assert scenario.data.seed == 99

    def test_market_config_resolution(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path))
        config = scenario.market.resolve(["P1", "P2", "P3", "P4", "P5"])
        assert config.support_agents == ("P2", "P3", "P4", "P5")
        with pytest.raises(InvalidInputError):
            scenario.market.resolve(["P2", "P3"])

    @pytest.mark.parametrize(
        ("field", "fields"),
        [
            ("default", lambda: {"reservations": ReservationSchedule(default=float("nan"))}),
            ("default", lambda: {"reservations": ReservationSchedule(default=True)}),
            ("u_grid", lambda: {"u_grid": (0.0, float("nan"))}),
            ("u_grid", lambda: {"u_grid": (False, True)}),
            ("t_grid", lambda: {"t_grid": (5, True)}),
        ],
        ids=["nan-uniform-u", "bool-uniform-u", "nan-u-grid", "bool-u-grid", "bool-t-grid"],
    )
    def test_constructor_rejects_nan_and_bool_naming_the_field(self, field, fields):
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            ScenarioConfig(
                scenario_id="x",
                market=MarketConfig("P1", None, LagSpec(1, 10)),
                data=SyntheticSpec(),
                **fields(),
            )

    @pytest.mark.parametrize(
        ("field", "value"),
        [("others_u", float("nan")), ("others_u", False), ("u_grid_a", (float("inf"),)), ("u_grid_b", (True,))],
        ids=["nan-others-u", "bool-others-u", "inf-grid-a", "bool-grid-b"],
    )
    def test_two_agent_grid_rejects_nan_and_bool_naming_the_field(self, field, value):
        grid = {"agent_a": "A", "agent_b": "B", "u_grid_a": (0.1,), "u_grid_b": (0.1,), field: value}
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            TwoAgentGrid(**grid)

    def test_two_agent_grid_validation(self):
        with pytest.raises(InvalidInputError):
            TwoAgentGrid("A", "A", (0.1,), (0.1,))
        with pytest.raises(InvalidInputError):
            TwoAgentGrid("A", "B", (), (0.1,))
