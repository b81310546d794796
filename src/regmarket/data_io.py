"""CSV ingestion for zonal wind data, scenario configs, and result tables.

Input CSVs carry one header row with a ``timestamp`` column plus one column
per zone. Timestamps are either plain integer hour indices or ISO-8601 whole
hours; both are mapped to integer hour indices. ISO stamps with a UTC offset
count UTC hours, naive ones local-calendar hours. Output tables are plain
CSV with round-trippable float formatting so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, finite_array, integer, real, sequence
from .market import MarketConfig, ReservationSchedule
from .regression import SolverSettings
from .timeseries import AgentSeries, LagSpec, SyntheticSpec

__all__ = [
    "ZonalDataset",
    "IngestReport",
    "TwoAgentGrid",
    "CsvSource",
    "ScenarioConfig",
    "ingest_csv",
    "to_agent_series",
    "write_outcome_table",
    "write_rows",
    "write_zonal_csv",
    "load_scenario",
    "OUTCOME_COLUMNS",
]

OUTCOME_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "agent",
    "lag",
    "coefficient",
    "reservation",
    "payment",
    "baseline_mse",
    "market_mse",
    "buyer_net_gain",
)


@dataclass(frozen=True)
class ZonalDataset:
    """Hourly per-zone values on a strictly increasing hour index.

    Gaps may remain after rows with missing values were dropped; windowing
    (:func:`to_agent_series`) requires the requested span to be contiguous.
    No zone, or a repeated one, is rejected, and so are hours out of order,
    naming the first pair. Timestamps are integers (:func:`~regmarket.errors.integer`, entry by
    entry); an int64 array is kept as it is.
    """

    zones: tuple
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        zones = sequence(self.zones, "zones")
        if not zones:
            raise InvalidInputError("zones must name at least one zone", "zones")
        repeated = [zone for k, zone in enumerate(zones) if zone in zones[:k]]
        if repeated:
            raise InvalidInputError(f"zones lists {repeated[0]!r} more than once", "zones")
        timestamps = self.timestamps
        if not (isinstance(timestamps, np.ndarray) and timestamps.dtype == np.int64):
            hours = [integer(hour, "timestamps") for hour in sequence(timestamps, "timestamps")]
            try:
                timestamps = np.array(hours, dtype=np.int64)
            except OverflowError:
                raise InvalidInputError("timestamps must fit in 64-bit integers", "timestamps") from None
        if timestamps.ndim != 1 or timestamps.shape[0] < 1:
            raise InvalidInputError("timestamps must hold at least one hour", "timestamps")
        steps = np.flatnonzero(timestamps[1:] <= timestamps[:-1])  # np.diff can wrap around
        if steps.size:
            earlier, later = timestamps[steps[0] : steps[0] + 2].tolist()
            message = f"timestamps must be strictly increasing (hour {later} follows hour {earlier})"
            raise InvalidInputError(message, "timestamps")
        values = finite_array(self.values, "values", (timestamps.shape[0], len(zones)), "values of the dataset")
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

    @property
    def n_hours(self) -> int:
        return self.timestamps.shape[0]


@dataclass(frozen=True)
class IngestReport:
    dataset: ZonalDataset
    dropped_rows: int
    warnings: tuple


_TIMESTAMP = "timestamp"  # the hour-index column of every zonal CSV
_ORDINAL_ONE = datetime(1, 1, 1)  # hour index 24, as date ordinals start at 1
_HOUR = timedelta(hours=1)


def _parse_hour(cell: str) -> int:
    """Hour index from an integer or ISO-8601 cell; ValueError if unusable.

    Stamps with a UTC offset are converted to UTC first, so the two hours
    that share a wall-clock time when daylight saving ends stay distinct.
    Naive stamps count local-calendar hours, independent of the host
    timezone. Either way the stamp must fall on a whole hour.
    """
    text = cell.strip()
    if ":" not in text and "-" not in text[1:]:  # otherwise int() must fail
        try:
            return int(text)
        except ValueError:
            pass
    stamp = datetime.fromisoformat(text)
    # A naive stamp has no offset. Subtract the offset last: near year 1 the UTC stamp is out of range.
    since = stamp.replace(tzinfo=None) - _ORDINAL_ONE - (stamp.utcoffset() or timedelta())
    hours, rest = divmod(since, _HOUR)
    if rest:
        raise ValueError(f"{text!r} is not a whole hour")
    return 24 + hours


def _check_normalization(value) -> None:
    if value not in ("none", "per-zone-max"):
        raise InvalidInputError(f"normalization must be 'none' or 'per-zone-max', got {value!r}", "normalization")


def ingest_csv(path, schema=None, normalization: str = "none") -> IngestReport:
    """Read a zonal CSV in one streaming pass, dropping unusable rows.

    ``schema`` optionally maps CSV column names to zone ids; by default every
    non-timestamp column is a zone named after its header, and a column with
    no name is rejected naming the file and its 1-based position. A header
    that repeats ``timestamp`` or a column the schema reads is rejected
    naming the file and the name. A row is dropped,
    and counted in ``dropped_rows``, when its timestamp is unparseable or
    outside the int64 hour range, or any zone cell is missing, empty,
    non-numeric or non-finite; lines whose cells are all blank are skipped
    without counting.

    The body is read in blocks of 256 KiB of text (:func:`_read_body`).
    Lines in the layout ``datetime.isoformat()`` writes, a whole-hour stamp
    first and plain decimal cells after it, are parsed a block at a time by
    numpy; every other line goes through ``csv.reader`` and the per-row
    parser. Both give bitwise the same hours and values, merged in file
    order. Hours and values go straight into flat typed buffers, so memory
    stays near one block plus the dataset, and the finiteness check runs
    once over the whole value block. With ``normalization="per-zone-max"``
    each zone is divided by its maximum over the retained rows, in place,
    so that promise holds with normalization too. A warning is
    reported when over 10% of rows drop. The zones and the retained hours
    must make a :class:`ZonalDataset`, whose error is raised naming the
    file. One leading UTF-8 byte-order mark is skipped. A file that is not
    UTF-8 text, or holds a cell over ``csv.field_size_limit()`` characters,
    is rejected with :class:`InvalidInputError` naming it.
    """
    _check_normalization(normalization)
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:  # drops a leading byte-order mark
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidInputError(f"{path}: empty file, expected a header row") from None

            header = [name.strip() for name in header]
            if _TIMESTAMP not in header:
                raise InvalidInputError(f"{path}: no {_TIMESTAMP!r} column in header")
            ts_index = header.index(_TIMESTAMP)

            if schema is None:
                if "" in header:
                    raise InvalidInputError(f"{path}: header column {header.index('') + 1} has no name")
                schema = {name: name for name in header if name != _TIMESTAMP}
            missing_columns = [name for name in schema if name not in header]
            if missing_columns:
                raise InvalidInputError(
                    f"{path}: schema column(s) {missing_columns} not found in header"
                )
            repeated = [name for name in (_TIMESTAMP, *schema) if header.count(name) > 1]
            if repeated:
                raise InvalidInputError(f"{path}: header repeats column {repeated[0]!r}")
            zone_indices = [(header.index(name), zone) for name, zone in schema.items()]
            zone_indices.sort()  # header order keeps zone layout independent of dict order
            zones = tuple(zone for _, zone in zone_indices)
            if not zones:
                raise InvalidInputError(f"{path}: no zone columns")
            columns = [index for index, _ in zone_indices]

            hours = array("q")
            cells = array("d")
            dropped = _read_body(handle, ts_index, len(header), columns, hours, cells)
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    except csv.Error as err:
        raise InvalidInputError(f"{path}: unreadable CSV ({err})") from None

    hours = np.frombuffer(hours, dtype=np.int64)
    values = np.frombuffer(cells, dtype=float).reshape(hours.shape[0], len(zones))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        dropped += int(hours.shape[0] - np.count_nonzero(finite))
        hours, values = hours[finite], values[finite]
    if not hours.shape[0]:
        raise InvalidInputError(f"{path}: no usable data rows ({dropped} dropped)")

    if normalization == "per-zone-max":
        peaks = values.max(axis=0)
        flat = [zones[k] for k in range(len(zones)) if peaks[k] <= 0]
        if flat:
            raise InvalidInputError(
                f"{path}: zone(s) {flat} have no positive values to normalize by"
            )
        values /= peaks  # a view of the typed buffer, or the copy that kept the finite rows

    warnings = []
    total = hours.shape[0] + dropped
    if dropped > 0.1 * total:
        warnings.append(
            f"dropped {dropped} of {total} rows ({100.0 * dropped / total:.1f}%)"
        )
    try:
        dataset = ZonalDataset(zones=zones, timestamps=hours, values=values)
    except InvalidInputError as err:  # a repeated zone, or hours out of order
        raise InvalidInputError(f"{path}: {err}") from None
    return IngestReport(dataset=dataset, dropped_rows=dropped, warnings=tuple(warnings))


def _not_utf8(path, err: UnicodeDecodeError) -> InvalidInputError:
    """The error for file ``path`` that ``err`` found not to be UTF-8, naming the first bad byte."""
    return InvalidInputError(f"{path}: not UTF-8 text (byte 0x{err.object[err.start : err.start + 1].hex()})")


_BLOCK_CHARS = 1 << 18  # body text parsed per block
_STAMP = np.frombuffer(b"yyyy-mm-ddThh:00:00,", dtype=np.uint8)  # with its comma
_STAMP_DIGITS = np.flatnonzero(_STAMP >= ord("a"))
_STAMP_FIXED = np.flatnonzero(_STAMP < ord("a"))


def _read_body(handle, ts_index: int, n_fields: int, columns, hours, cells) -> int:
    """Append the usable rows after the header to ``hours`` and ``cells``; return the drop count.

    Text is taken in blocks of ``_BLOCK_CHARS`` cut after the last newline
    and parsed by :func:`_read_block`. The rest of the file, from the
    unparsed partial line on, streams through one ``csv.reader`` instead
    when the stamp is not the first column, a block holds a quote (a quoted
    cell may span lines, and so blocks) or holds no newline.
    """
    dropped = 0
    rest = ""  # text read but not parsed: the start of a line
    while ts_index == 0:  # the screen reads the stamp from the first column
        text = rest + handle.read(_BLOCK_CHARS)
        data = text.encode("utf-8")
        cut = data.rfind(b"\n") + 1
        if not cut or b'"' in data:  # also at the end of the file
            rest = text
            break
        del text  # keep one copy of the block
        rest = data[cut:].decode("utf-8")
        dropped += _read_block(memoryview(data)[:cut], n_fields, columns, hours, cells)
    lines = chain(io.StringIO(rest + handle.readline(), newline=""), handle)
    return dropped + _read_rows(csv.reader(lines), ts_index, columns, hours, cells)


def _read_rows(rows, ts_index: int, columns, hours, cells) -> int:
    """Append each usable ``csv.reader`` row; return the count of dropped rows."""
    dropped = 0
    for row in rows:
        try:
            hour = _parse_hour(row[ts_index])
            parsed = [float(row[i].strip()) for i in columns]
            hours.append(hour)  # OverflowError: hour outside int64
        except (IndexError, ValueError, OverflowError):
            if any(cell.strip() for cell in row):
                dropped += 1
            continue  # else a blank line, not a data row
        cells.extend(parsed)
    return dropped


def _read_block(data, n_fields: int, columns, hours, cells) -> int:
    """Append the usable rows of the whole lines in bytes ``data``; return the drop count.

    Each run of plain lines (:func:`_screen_lines`) is parsed by one
    ``np.loadtxt``, which converts with ``PyOS_string_to_double`` as
    ``float()`` does; the screen's byte set leaves out what only ``float()``
    reads (``_``, whitespace, ``inf``, ``nan``). Other lines, and a run
    ``loadtxt`` rejects, go through :func:`_read_rows`. A parsed run's hours
    and cells are appended from a byte view of their arrays, with no
    ``bytes`` copy between.
    """
    starts, plain, stamp_hours = _screen_lines(data, n_fields)
    edges = np.flatnonzero(plain[1:] != plain[:-1]) + 1
    runs = [0, *edges.tolist(), plain.shape[0]]
    dropped = 0
    for first, stop in zip(runs, runs[1:]):
        piece = data[starts[first] : starts[stop]]
        if plain[first]:
            try:
                values = np.loadtxt(
                    io.BytesIO(piece), delimiter=",", usecols=columns, comments=None, ndmin=2
                )
            except ValueError:
                pass  # a cell such as "1e" or "--1": let the row parser drop its line
            else:
                hours.frombytes(memoryview(stamp_hours[first:stop]).cast("B"))
                cells.frombytes(memoryview(values).cast("B"))
                continue
        text = io.TextIOWrapper(io.BytesIO(piece), encoding="utf-8", newline="")
        dropped += _read_rows(csv.reader(text), 0, columns, hours, cells)
    return dropped


def _screen_lines(data, n_fields: int):
    """Line bounds, plain-line mask and plain-line hour indices of ``data``.

    ``data`` holds whole lines, each ending in a newline. Line ``k`` is
    ``data[starts[k]:starts[k + 1]]``. It is plain when it reads
    ``YYYY-MM-DDTHH:00:00`` with an hour of 0-23 on a day ``datetime.date``
    accepts, then ``n_fields - 1`` nonempty cells of the bytes
    ``0-9 . + - e E``, and ends in a newline with at most a CR before it.
    Both paths thus use ``datetime``'s calendar, and a plain line's hour is
    the one :func:`_parse_hour` gives; any other stamp is left to that
    function.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(b == 10) + 1))
    heads = starts[:-1]
    comma = b == 44
    cell = (((b - 43) <= 14) & (b != 47) & ~comma) | ((b | 32) == 101)  # 0-9 . + - e E
    # Besides cell bytes and commas a plain line holds only the stamp's T
    # and two colons, its newline and maybe a CR before it.
    stray = _per_line(~(cell | comma), starts)
    commas = _per_line(comma, starts)
    comma[:-1] &= ~cell[1:]  # now marks the commas that end an empty cell
    empty = _per_line(comma, starts)
    del comma, cell
    crlf = b[starts[1:] - 2] == 13
    rows = np.flatnonzero(
        (stray == 4 + crlf)
        & (commas == n_fields - 1)
        & (empty == 0)
        & (np.diff(starts) > _STAMP.size + 1)  # room for the stamp, a cell and the newline
    )

    stamp = b[heads[rows, None] + np.arange(_STAMP.size)]
    digits = (stamp[:, _STAMP_DIGITS] - 48).astype(np.int64)  # uint8 wraps: > 9 unless a digit
    shaped = (stamp[:, _STAMP_FIXED] == _STAMP[_STAMP_FIXED]).all(axis=1) & (digits <= 9).all(axis=1)
    rows, digits = rows[shaped], digits[shaped]
    days, day_of = np.unique(digits[:, :8] @ 10 ** np.arange(7, -1, -1), return_inverse=True)  # yyyymmdd
    # datetime.date, not numpy's datetime64 cast, which can crash on an invalid date.
    ordinals = np.array([_ordinal(day) for day in days.tolist()], dtype=np.int64)[day_of]
    hour = digits[:, 8:10] @ (10, 1)
    plain = np.zeros(heads.shape[0], dtype=bool)
    plain[rows] = (ordinals > 0) & (hour <= 23)
    stamp_hours = np.zeros(heads.shape[0], dtype=np.int64)
    stamp_hours[rows] = ordinals * 24 + hour
    return starts, plain, stamp_hours


def _ordinal(day: int) -> int:
    """``date.toordinal()`` of the day ``yyyymmdd``; 0 if the calendar lacks it."""
    try:
        return date(day // 10000, day // 100 % 100, day % 100).toordinal()
    except ValueError:
        return 0


def _per_line(mask, starts):
    """How many entries of ``mask`` are set in each line ``[starts[k], starts[k + 1])``."""
    return np.diff(np.searchsorted(np.flatnonzero(mask), starts))


def to_agent_series(dataset: ZonalDataset, start: int, window_length: int, max_lag: int) -> list:
    """Cut one AgentSeries per zone covering hours [start - max_lag, start + window_length).

    The requested span must be present without gaps; otherwise the call is
    rejected with the required and available ranges, naming ``start`` when
    the span's first hour is not in the dataset and ``window_length`` when
    the span runs past its end or across a gap.
    """
    start = integer(start, "start")
    window_length = integer(window_length, "window_length", least=1)
    max_lag = integer(max_lag, "max_lag", least=0)
    first_hour = start - max_lag
    span = max_lag + window_length
    timestamps = dataset.timestamps
    available = f"hours {timestamps[0]}..{timestamps[-1]} ({dataset.n_hours} rows)"
    required = f"hours {first_hour}..{first_hour + span - 1}"
    position = int(np.searchsorted(timestamps, first_hour))
    if position >= dataset.n_hours or timestamps[position] != first_hour:
        raise InvalidInputError(f"start {start} needs {required}, dataset has {available}", "start")
    if position + span > dataset.n_hours:
        raise InvalidInputError(
            f"window_length {window_length} needs {required}, dataset has {available}", "window_length"
        )
    # Strictly increasing integers spanning exactly `span` slots are contiguous
    # iff the last one matches; pinpoint the first gap for the error message.
    if timestamps[position + span - 1] != first_hour + span - 1:
        segment = timestamps[position : position + span]
        gap_at = int(segment[np.argmax(np.diff(segment) > 1)]) + 1
        raise InvalidInputError(
            f"window_length {window_length} needs {required} contiguously, "
            f"dataset has a gap after hour {gap_at - 1}",
            "window_length",
        )
    block = dataset.values[position : position + span]
    return [
        AgentSeries(agent_id=zone, values=block[:, k], start_time=max_lag)
        for k, zone in enumerate(dataset.zones)
    ]


def _write_csv(path, lines) -> None:
    """Write the text ``lines``, each ended by a newline, creating the parent directory.

    Every caller formats its own lines: cells through :func:`_formatted`,
    floats as their ``repr``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _formatted(rows) -> list:
    """Each cell list in ``rows`` as ``csv.writer`` writes it, without the line end.

    Each cell is quoted as in any row, so the text can be formatted once and
    reused in many rows. One writer formats them all; ``writerow`` returns
    the length it wrote, which splits the text. ``csv.writer`` writes a row
    of one empty cell as ``""``, so every row holds a nonempty cell.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    ends = list(accumulate(writer.writerow(row) for row in rows))
    text = buffer.getvalue()
    return [text[start : end - 1] for start, end in zip([0, *ends], ends)]


def write_rows(path, fieldnames, rows) -> None:
    """Write dict rows as CSV under a ``fieldnames`` header; missing cells stay empty."""
    _write_csv(path, _formatted([fieldnames, *([row.get(name) for name in fieldnames] for row in rows)]))


def write_outcome_table(outcomes, path) -> None:
    """Write clearing results as CSV: one row per support feature plus a buyer row.

    ``outcomes`` is a sequence of ``(sweep_param, sweep_value, MarketOutcome)``.
    Feature rows follow the market's ``seller_features``, each with its
    agent, lag, cleared coefficient, price and payment; the buyer row carries
    the total payment, both MSEs and the buyer's net gain. The column order
    is fixed and documented in a leading comment line.

    The bytes are those ``csv.writer`` writes for the same cells. Each
    point's ``(sweep_param, sweep_value)`` and each market's ``(agent, lag)``
    and buyer cells are formatted once, and every float as its ``repr``,
    which is what ``csv.writer`` writes for a float.
    """
    outcomes = list(outcomes)
    points = _formatted((sweep_param, sweep_value) for sweep_param, sweep_value, _ in outcomes)
    lines, by_market = [], {}
    for point, (_, _, outcome) in zip(points, outcomes):
        market = outcome.market
        if market not in by_market:
            by_market[market] = _formatted([*market.seller_features, (market.config.central_agent, "", "", "")])
        *features, buyer = by_market[market]
        beta = outcome.market_beta[market.seller_index].tolist()
        cells = zip(features, beta, outcome.prices.tolist(), outcome.payments.tolist())
        lines += (f"{point},{feature},{b!r},{u!r},{paid!r},,," for feature, b, u, paid in cells)
        totals = (outcome.total_payments, market.baseline_mse, outcome.market_mse, outcome.buyer_net_gain)
        lines.append(f"{point},{buyer},{','.join(map(repr, totals))}")
    if not lines:
        raise InvalidInputError("no outcomes to write")
    _write_csv(path, ["# columns: " + ",".join(OUTCOME_COLUMNS), *_formatted([OUTCOME_COLUMNS]), *lines])


def write_zonal_csv(dataset: ZonalDataset, path) -> None:
    """Write a dataset as a timestamp+zones CSV that :func:`ingest_csv` reads back.

    The timestamp column is the dataset's hour index, so gaps left by
    dropped rows survive a round trip.
    """
    rows = zip(dataset.timestamps.tolist(), dataset.values.tolist())
    lines = (",".join(map(repr, [hour, *row])) for hour, row in rows)  # repr of an int is str's
    _write_csv(path, [*_formatted([[_TIMESTAMP, *dataset.zones]]), *lines])


@dataclass(frozen=True)
class TwoAgentGrid:
    """Reservation grids for two focal sellers; everyone else stays at ``others_u``."""

    agent_a: str
    agent_b: str
    u_grid_a: tuple
    u_grid_b: tuple
    others_u: float = 0.1

    def __post_init__(self):
        if self.agent_a == self.agent_b:
            raise InvalidInputError(f"agent_b {self.agent_b!r} is agent_a too; the grid needs two sellers", "agent_b")
        for name in ("u_grid_a", "u_grid_b"):
            object.__setattr__(self, name, _checked_grid(getattr(self, name), name))
        object.__setattr__(self, "others_u", real(self.others_u, "others_u", least=0))


def _checked_grid(grid, field: str, whole: bool = False) -> tuple:
    """A u grid of reals of at least 0, or with ``whole`` a T grid of integers of at least 1, strictly increasing."""
    values = tuple(integer(v, field, least=1) if whole else real(v, field, least=0) for v in sequence(grid, field))
    if not values:
        raise InvalidInputError(f"{field} must not be empty", field=field)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidInputError(f"{field} must be strictly increasing", field=field)
    return values


@dataclass(frozen=True)
class CsvSource:
    """A zonal CSV as a scenario's data: :func:`ingest_csv` reads ``path`` with ``schema`` and
    ``normalization``, and the window starts at hour ``window_start``, by default the first its lags allow."""

    path: str
    schema: dict | None = None
    normalization: str = "none"
    window_start: int | None = None

    def __post_init__(self):
        _text(self.path, "path")
        schema = self.schema
        if schema is not None and not (isinstance(schema, dict) and all(isinstance(v, str) for v in schema.values())):
            raise InvalidInputError(f"schema must map column names to zone names, got {schema!r}", field="schema")
        _check_normalization(self.normalization)
        if self.window_start is not None:
            object.__setattr__(self, "window_start", integer(self.window_start, "window_start"))


@dataclass(frozen=True)
class ScenarioConfig:
    """A full experiment description: data source, market, reservations, sweeps, output.

    ``data`` is a :class:`~regmarket.timeseries.SyntheticSpec` or a :class:`CsvSource`.
    ``market`` may leave its sellers ``None``; the prepared market names them from the data.
    """

    scenario_id: str
    market: MarketConfig
    data: SyntheticSpec | CsvSource
    reservations: ReservationSchedule = dataclasses.field(default_factory=lambda: ReservationSchedule(default=0.1))
    u_grid: tuple | None = None
    t_grid: tuple | None = None
    grid2: TwoAgentGrid | None = None
    out_dir: str = "results"

    def __post_init__(self):
        if not isinstance(self.data, (SyntheticSpec, CsvSource)):
            raise InvalidInputError(f"data must be a SyntheticSpec or a CsvSource, got {self.data!r}", field="data")
        _text(self.scenario_id, "scenario_id")
        _text(self.out_dir, "out_dir")
        if not isinstance(self.reservations, ReservationSchedule):
            message = f"reservations must be a ReservationSchedule, got {self.reservations!r}"
            raise InvalidInputError(message, field="reservations")
        if self.u_grid is not None:
            object.__setattr__(self, "u_grid", _checked_grid(self.u_grid, "u_grid"))
        if self.t_grid is not None:
            object.__setattr__(self, "t_grid", _checked_grid(self.t_grid, "t_grid", whole=True))


def _text(value, field: str):
    """``value``, a string or path; anything else is rejected naming ``field``."""
    if not isinstance(value, (str, os.PathLike)):
        raise InvalidInputError(f"{field} must be a string, got {value!r}", field=field)
    return value


def _same(*keys):
    return dict(zip(keys, keys))


# The keys of each scenario block, each mapped to the constructor field it
# sets. Messages name a key by its dotted path as written in the file
# (``market.window``); the sweep grids keep the bare names they have always
# had in messages.
_TOP_KEYS = _same("scenario_id", "seed", "out_dir")
_DATA_KEYS = {
    "synthetic": _same(*(f.name for f in dataclasses.fields(SyntheticSpec) if f.name != "seed")),
    "csv": _same("path", "schema", "normalization", "window_start"),
}
_MARKET_KEYS = {
    **_same("central_agent", "support_agents", "max_lag", "tolerance", "max_iterations"),
    "window": "window_length",
}
_RESERVATION_KEYS = {"uniform_u": "default", "entries": "entries"}
_SWEEP_KEYS = _same("u_grid", "t_grid")
_GRID2_KEYS = _same("agent_a", "agent_b", "u_grid_a", "u_grid_b", "others_u")
_BARE_KEYS = ("u_grid", "t_grid", "u_grid_a", "u_grid_b")
# The top-level keys an argument of load_scenario may replace, each with the
# rule its constructor applies; a CSV source takes no seed, so only this checks its seed.
_TOP_CHECKS = {"seed": lambda value: integer(value, "seed", least=0), "out_dir": lambda value: _text(value, "out_dir")}
# Each field, mapped to the key that sets it as messages name it.
_KEY_OF = {
    field: key if not block or key in _BARE_KEYS else f"{block}.{key}"
    for block, keys in (("", _TOP_KEYS), *(("data", k) for k in _DATA_KEYS.values()), ("market", _MARKET_KEYS),
                        ("reservations", _RESERVATION_KEYS), ("sweeps", _SWEEP_KEYS), ("sweeps.grid2", _GRID2_KEYS))
    for key, field in keys.items()
}


def label_error(err: InvalidInputError, path) -> InvalidInputError:
    """``err`` naming the scenario file and, in place of its field, the key that sets it.

    An error whose field no scenario key sets is returned unchanged.
    """
    key = _KEY_OF.get(err.field)
    if key is None:
        return err
    return InvalidInputError(f"{Path(path)}: invalid value ({err.renamed(key)})")


def load_scenario(path, seed=None, out_dir=None) -> ScenarioConfig:
    """Parse a scenario JSON file into a :class:`ScenarioConfig`.

    The tables above map each block's keys to constructor fields. Only the
    keys present are passed on, so every default lives in its constructor,
    and the constructors check every value. An unknown, missing or repeated
    key, a block that is not an object, or a value a constructor rejects raises
    :class:`InvalidInputError` naming the file, and for a value the key
    (:func:`label_error`).

    ``seed`` and ``out_dir``, when given, replace the file's values before any
    constructor runs. The file's own values are still checked, and rejected
    naming the file and key; a rejected argument names neither, since it is
    not in the file, and is rejected before the file is read.
    """
    given = {name: _TOP_CHECKS[name](v) for name, v in {"seed": seed, "out_dir": out_dir}.items() if v is not None}
    path = Path(path)

    def unique(pairs):  # one JSON object; a key it repeats is rejected
        block = {}
        for key, value in pairs:
            if key in block:
                raise InvalidInputError(f"{path}: an object repeats key {key!r}")
            block[key] = value
        return block

    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=unique)  # drops a byte-order mark
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{path}: invalid JSON ({err})") from None
    kind, fields = _read_blocks(raw, path)
    try:
        for name, check in _TOP_CHECKS.items():  # the file's own, even where an argument replaces it
            if name in fields:
                check(fields[name])
        fields.update(given)
        source = SyntheticSpec if kind == "synthetic" else CsvSource
        fields["data"] = source(**_take(fields, source))  # a synthetic source takes the seed
        fields.pop("seed", None)  # a CSV source takes none
        fields["lag_spec"] = LagSpec(**_take(fields, LagSpec))
        fields["solver"] = SolverSettings(**_take(fields, SolverSettings))
        fields.setdefault("support_agents", None)
        fields["market"] = MarketConfig(**_take(fields, MarketConfig))
        if "reservations" in raw:  # uniform_u sets the default, or entries price features one by one
            if "entries" in fields:
                fields["entries"] = _entries(fields["entries"])
            fields["reservations"] = ReservationSchedule(**_take(fields, ReservationSchedule))
        if "agent_a" in fields:  # a grid2 block, which requires its agents
            fields["grid2"] = TwoAgentGrid(**_take(fields, TwoAgentGrid))
        fields.setdefault("scenario_id", path.stem)
        return ScenarioConfig(**fields)
    except InvalidInputError as err:
        raise label_error(err, path) from None


def _read_blocks(raw, path: Path):
    """The data type, and the fields the keys of ``raw`` set."""
    fields = {}

    def read(block, name, keys, required=(), blocks=()):
        if not isinstance(block, dict):
            raise InvalidInputError(f"{path}: invalid value ({name} must be an object, got {block!r})")
        context = f"{path}: {name}" if name else str(path)
        unknown = sorted(set(block) - {*keys, *blocks})
        if unknown:
            raise InvalidInputError(f"{context}: unknown key(s) {unknown}")
        absent = sorted(set(required) - set(block))
        if absent:
            raise InvalidInputError(f"{context}: missing required key(s) {absent}")
        fields.update((field_name, block[key]) for key, field_name in keys.items() if key in block)

    if not isinstance(raw, dict):
        raise InvalidInputError(f"{path}: top level must be an object")
    read(raw, "", _TOP_KEYS, ("data", "market"), ("data", "market", "reservations", "sweeps"))
    data = raw["data"]
    kind = data.get("type") if isinstance(data, dict) else None
    if isinstance(data, dict) and kind not in ("synthetic", "csv"):
        message = f"data.type must be 'synthetic' or 'csv', got {kind!r}"
        raise InvalidInputError(f"{path}: invalid value ({message})")
    read(data, "data", _DATA_KEYS.get(kind, {}), ("type", "path") if kind == "csv" else ("type",), ("type",))
    read(raw["market"], "market", _MARKET_KEYS, ("central_agent", "max_lag", "window"))
    if "reservations" in raw:
        block = raw["reservations"]
        read(block, "reservations", _RESERVATION_KEYS)
        if (block.get("uniform_u") is None) == (block.get("entries") is None):
            raise InvalidInputError(f"{path}: reservations: give exactly one of uniform_u or entries")
    if "sweeps" in raw:
        read(raw["sweeps"], "sweeps", _SWEEP_KEYS, blocks=("grid2",))
        if "grid2" in raw["sweeps"]:
            required = ("agent_a", "agent_b", "u_grid_a", "u_grid_b")
            read(raw["sweeps"]["grid2"], "sweeps.grid2", _GRID2_KEYS, required)
    return kind, fields


def _take(fields: dict, constructor) -> dict:
    """Remove and return the entries of ``fields`` that are fields of ``constructor``."""
    return {f.name: fields.pop(f.name) for f in dataclasses.fields(constructor) if f.name in fields}


def _entries(value) -> list:
    """``reservations.entries``, a list of ``[agent, lag, u]`` triples, as ``((agent, lag), u)`` pairs.

    Only their JSON shape is checked here; :class:`~regmarket.market.ReservationSchedule` checks the rest.
    """
    if not isinstance(value, list) or not all(
        isinstance(e, list) and len(e) == 3 and isinstance(e[0], str) and not isinstance(e[1], (list, dict))
        for e in value
    ):
        raise InvalidInputError(f"entries must be a list of [agent, lag, u] triples, got {value!r}", "entries")
    return [((agent, lag), u) for agent, lag, u in value]
