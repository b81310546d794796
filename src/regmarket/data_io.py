"""CSV ingestion for zonal wind data, scenario configs, and result tables.

Input CSVs carry one header row with a ``timestamp`` column plus one column
per zone. Timestamps are either plain integer hour indices or ISO-8601 local
hours (minutes and seconds must be zero); both are mapped to integer hour
indices. Output tables are plain CSV with round-trippable float formatting
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .market import MarketConfig, ReservationSchedule
from .regression import SolverSettings
from .timeseries import AgentSeries, LagSpec, SyntheticSpec

__all__ = [
    "ZonalDataset",
    "IngestReport",
    "TwoAgentGrid",
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
    """

    zones: tuple
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        zones = tuple(self.zones)
        timestamps = np.asarray(self.timestamps, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if timestamps.ndim != 1 or timestamps.shape[0] < 1:
            raise InvalidInputError("dataset needs at least one hour")
        if np.any(np.diff(timestamps) <= 0):
            raise InvalidInputError("timestamps must be strictly increasing")
        if values.shape != (timestamps.shape[0], len(zones)):
            raise InvalidInputError(
                f"values shape {values.shape} does not match "
                f"{timestamps.shape[0]} hours x {len(zones)} zones"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("dataset contains non-finite values")
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

    @property
    def n_hours(self) -> int:
        return self.timestamps.shape[0]

    def zone_values(self, zone) -> np.ndarray:
        try:
            column = self.zones.index(zone)
        except ValueError:
            raise InvalidInputError(f"no zone {zone!r} in dataset") from None
        return self.values[:, column]


@dataclass(frozen=True)
class IngestReport:
    dataset: ZonalDataset
    dropped_rows: int
    warnings: tuple


def _parse_hour(cell: str):
    """Hour index from an integer or ISO-8601 cell, or None if unusable."""
    text = cell.strip()
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        return None
    if stamp.minute or stamp.second or stamp.microsecond:
        return None
    # Local-calendar arithmetic keeps this independent of the host timezone.
    return stamp.date().toordinal() * 24 + stamp.hour


def ingest_csv(path, schema=None, normalization: str = "none", timestamp_column: str = "timestamp") -> IngestReport:
    """Read a zonal CSV, dropping rows with missing or unusable cells.

    ``schema`` optionally maps CSV column names to zone ids; by default every
    non-timestamp column is a zone named after its header. With
    ``normalization="per-zone-max"`` each zone is divided by its maximum over
    the retained rows.
    """
    if normalization not in ("none", "per-zone-max"):
        raise InvalidInputError(
            f"normalization must be 'none' or 'per-zone-max', got {normalization!r}"
        )
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file, expected a header row") from None
        rows = list(reader)

    header = [name.strip() for name in header]
    if timestamp_column not in header:
        raise InvalidInputError(f"{path}: no {timestamp_column!r} column in header")
    ts_index = header.index(timestamp_column)

    if schema is None:
        schema = {name: name for name in header if name != timestamp_column}
    missing_columns = [name for name in schema if name not in header]
    if missing_columns:
        raise InvalidInputError(
            f"{path}: schema column(s) {missing_columns} not found in header"
        )
    zone_indices = [(header.index(name), zone) for name, zone in schema.items()]
    zone_indices.sort()  # header order keeps zone layout independent of dict order
    zones = tuple(zone for _, zone in zone_indices)
    if len(set(zones)) != len(zones):
        raise InvalidInputError(f"{path}: duplicate zone names in schema")
    if not zones:
        raise InvalidInputError(f"{path}: no zone columns")

    hours = []
    data = []
    dropped = 0
    for row in rows:
        if not any(cell.strip() for cell in row):
            continue  # blank line, not a data row
        hour = _parse_hour(row[ts_index]) if ts_index < len(row) else None
        parsed = []
        if hour is not None:
            for index, _ in zone_indices:
                cell = row[index].strip() if index < len(row) else ""
                if not cell:
                    parsed = None
                    break
                try:
                    value = float(cell)
                except ValueError:
                    parsed = None
                    break
                if not np.isfinite(value):
                    parsed = None
                    break
                parsed.append(value)
        if hour is None or parsed is None:
            dropped += 1
            continue
        hours.append(hour)
        data.append(parsed)

    if not hours:
        raise InvalidInputError(f"{path}: no usable data rows")
    hours = np.asarray(hours, dtype=np.int64)
    if np.any(np.diff(hours) <= 0):
        raise InvalidInputError(f"{path}: non-monotonic timestamps")
    values = np.asarray(data, dtype=float)

    if normalization == "per-zone-max":
        peaks = values.max(axis=0)
        flat = [zones[k] for k in range(len(zones)) if peaks[k] <= 0]
        if flat:
            raise InvalidInputError(
                f"{path}: zone(s) {flat} have no positive values to normalize by"
            )
        values = values / peaks

    warnings = []
    total = len(hours) + dropped
    if dropped > 0.1 * total:
        warnings.append(
            f"dropped {dropped} of {total} rows ({100.0 * dropped / total:.1f}%)"
        )
    dataset = ZonalDataset(zones=zones, timestamps=hours, values=values)
    return IngestReport(dataset=dataset, dropped_rows=dropped, warnings=tuple(warnings))


def to_agent_series(dataset: ZonalDataset, start: int, window_length: int, max_lag: int) -> list:
    """Cut one AgentSeries per zone covering hours [start - max_lag, start + window_length).

    The requested span must be present without gaps; otherwise the call is
    rejected with the required and available ranges.
    """
    if window_length < 1 or max_lag < 0:
        raise InvalidInputError("window_length must be >= 1 and max_lag >= 0")
    first_hour = start - max_lag
    span = max_lag + window_length
    timestamps = dataset.timestamps
    available = f"hours {timestamps[0]}..{timestamps[-1]} ({dataset.n_hours} rows)"
    required = f"hours {first_hour}..{first_hour + span - 1}"
    position = int(np.searchsorted(timestamps, first_hour))
    if position >= dataset.n_hours or timestamps[position] != first_hour:
        raise InvalidInputError(f"window needs {required}, dataset has {available}")
    if position + span > dataset.n_hours:
        raise InvalidInputError(f"window needs {required}, dataset has {available}")
    # Strictly increasing integers spanning exactly `span` slots are contiguous
    # iff the last one matches; pinpoint the first gap for the error message.
    if timestamps[position + span - 1] != first_hour + span - 1:
        segment = timestamps[position : position + span]
        gap_at = int(segment[np.argmax(np.diff(segment) > 1)]) + 1
        raise InvalidInputError(
            f"window needs {required} contiguously, dataset has a gap after hour {gap_at - 1}"
        )
    block = dataset.values[position : position + span]
    return [
        AgentSeries(agent_id=zone, values=block[:, k], start_time=max_lag)
        for k, zone in enumerate(dataset.zones)
    ]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_rows(path, fieldnames, rows) -> None:
    """Write dict rows as CSV under a ``fieldnames`` header; missing cells stay empty."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row.get(name)) for name in fieldnames])


def write_outcome_table(outcomes, path) -> None:
    """Write clearing results as CSV: one row per support feature plus a buyer row.

    ``outcomes`` is a sequence of ``(sweep_param, sweep_value, MarketOutcome)``.
    Feature rows carry the agent, lag, cleared coefficient, reservation and
    payment; the buyer row carries the total payment, both losses and the
    buyer's net gain. The column order is fixed and documented in a leading
    comment line.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise InvalidInputError("no outcomes to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("# columns: " + ",".join(OUTCOME_COLUMNS) + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(OUTCOME_COLUMNS)
        for sweep_param, sweep_value, outcome in outcomes:
            point = (_format_cell(sweep_param), _format_cell(sweep_value))
            for record in outcome.payments:
                writer.writerow(
                    [
                        *point,
                        record.agent_id,
                        record.lag,
                        _format_cell(record.coefficient),
                        _format_cell(record.reservation),
                        _format_cell(record.amount),
                        "",
                        "",
                        "",
                    ]
                )
            writer.writerow(
                [
                    *point,
                    outcome.config.central_agent,
                    "",
                    "",
                    "",
                    _format_cell(outcome.total_payments),
                    _format_cell(outcome.baseline_loss.mse),
                    _format_cell(outcome.market_loss.mse),
                    _format_cell(outcome.buyer_net_gain),
                ]
            )


def write_zonal_csv(series_list, path) -> None:
    """Write agent series side by side as a timestamp+columns CSV."""
    series_list = list(series_list)
    if not series_list:
        raise InvalidInputError("no series to write")
    lengths = {s.values.shape[0] for s in series_list}
    if len(lengths) != 1:
        raise InvalidInputError(f"series differ in length: {sorted(lengths)}")
    length = lengths.pop()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", *(s.agent_id for s in series_list)])
        for t in range(length):
            writer.writerow([t, *(repr(float(s.values[t])) for s in series_list)])


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
            raise InvalidInputError("two-agent grid needs two distinct agents")
        for name in ("u_grid_a", "u_grid_b"):
            object.__setattr__(self, name, _checked_grid(getattr(self, name), name))
        if self.others_u < 0:
            raise InvalidInputError("others_u must be nonnegative")


def _checked_grid(grid, name, integer: bool = False):
    values = tuple(int(v) if integer else float(v) for v in grid)
    if not values:
        raise InvalidInputError(f"{name} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidInputError(f"{name} must be strictly increasing")
    if any(v < 0 for v in values):
        raise InvalidInputError(f"{name} entries must be nonnegative")
    return values


@dataclass(frozen=True)
class ScenarioConfig:
    """A full experiment description: data source, market shape, sweeps, output."""

    scenario_id: str
    central_agent: str
    lag_spec: LagSpec
    synthetic: SyntheticSpec | None = None
    csv_path: str | None = None
    csv_schema: dict | None = None
    csv_normalization: str = "none"
    csv_window_start: int | None = None
    support_agents: tuple | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)
    uniform_u: float | None = None
    reservations: ReservationSchedule | None = None
    u_grid: tuple | None = None
    t_grid: tuple | None = None
    grid2: TwoAgentGrid | None = None
    out_dir: str = "results"
    seed: int = 0

    def __post_init__(self):
        if (self.synthetic is None) == (self.csv_path is None):
            raise InvalidInputError(
                "scenario needs exactly one data source (synthetic or csv)"
            )
        if self.uniform_u is not None and self.reservations is not None:
            raise InvalidInputError("give either uniform_u or explicit reservations")
        if self.uniform_u is None and self.reservations is None:
            object.__setattr__(self, "uniform_u", 0.1)
        if self.uniform_u is not None and self.uniform_u < 0:
            raise InvalidInputError("uniform_u must be nonnegative")
        if self.support_agents is not None:
            object.__setattr__(self, "support_agents", tuple(self.support_agents))
        if self.u_grid is not None:
            object.__setattr__(self, "u_grid", _checked_grid(self.u_grid, "u_grid"))
        if self.t_grid is not None:
            grid = _checked_grid(self.t_grid, "t_grid", integer=True)
            if any(v < 1 for v in grid):
                raise InvalidInputError("t_grid entries must be positive")
            object.__setattr__(self, "t_grid", grid)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        synthetic = (
            dataclasses.replace(self.synthetic, seed=seed) if self.synthetic else None
        )
        return dataclasses.replace(self, seed=seed, synthetic=synthetic)

    def schedule(self, support_agents) -> ReservationSchedule:
        """The scenario's reservation schedule over the given support agents."""
        if self.reservations is not None:
            return self.reservations
        return ReservationSchedule.uniform(
            support_agents, self.lag_spec.max_lag, self.uniform_u
        )

    def market_config(self, available_agents, lag_spec: LagSpec | None = None) -> MarketConfig:
        """Resolve the market shape against the agents the data source provides."""
        available = list(available_agents)
        if self.central_agent not in available:
            raise InvalidInputError(
                f"central agent {self.central_agent!r} not in data source "
                f"(has {available})"
            )
        supports = self.support_agents
        if supports is None:
            supports = tuple(a for a in available if a != self.central_agent)
        else:
            absent = [a for a in supports if a not in available]
            if absent:
                raise InvalidInputError(f"support agents {absent} not in data source")
        return MarketConfig(
            central_agent=self.central_agent,
            support_agents=supports,
            lag_spec=lag_spec or self.lag_spec,
            solver=self.solver,
        )


def _require_keys(mapping, allowed, required, context):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise InvalidInputError(f"{context}: unknown key(s) {unknown}")
    absent = sorted(set(required) - set(mapping))
    if absent:
        raise InvalidInputError(f"{context}: missing required key(s) {absent}")


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario JSON file; rejects unknown keys to catch typos early."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{path}: top level must be an object")
    _require_keys(
        raw,
        allowed=("scenario_id", "seed", "out_dir", "data", "market", "reservations", "sweeps"),
        required=("data", "market"),
        context=str(path),
    )
    seed = int(raw.get("seed", 0))

    data = raw["data"]
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidInputError("data: missing required key 'type'")
    synthetic = None
    csv_fields = {}
    if data["type"] == "synthetic":
        _require_keys(data, allowed=("type",) + _DATA_KEYS["synthetic"], required=("type",), context="data")
        spec_kwargs = {k: data[k] for k in _DATA_KEYS["synthetic"] if k in data}
        for key in ("ar_coefficients", "noise_std", "cross_coefficients"):
            if key in spec_kwargs:
                spec_kwargs[key] = tuple(spec_kwargs[key])
        synthetic = SyntheticSpec(seed=seed, **spec_kwargs)
    elif data["type"] == "csv":
        _require_keys(data, allowed=("type",) + _DATA_KEYS["csv"], required=("type", "path"), context="data")
        csv_fields = {
            "csv_path": data["path"],
            "csv_schema": data.get("schema"),
            "csv_normalization": data.get("normalization", "none"),
            "csv_window_start": data.get("window_start"),
        }
    else:
        raise InvalidInputError(f"data.type must be 'synthetic' or 'csv', got {data['type']!r}")

    market = raw["market"]
    _require_keys(
        market,
        allowed=("central_agent", "support_agents", "max_lag", "window", "tolerance", "max_iterations"),
        required=("central_agent", "max_lag", "window"),
        context="market",
    )
    lag_spec = LagSpec(max_lag=int(market["max_lag"]), window_length=int(market["window"]))
    solver = SolverSettings(
        tolerance=float(market.get("tolerance", SolverSettings.tolerance)),
        max_iterations=int(market.get("max_iterations", SolverSettings.max_iterations)),
    )

    uniform_u = None
    reservations = None
    if "reservations" in raw:
        block = raw["reservations"]
        _require_keys(block, allowed=("uniform_u", "entries"), required=(), context="reservations")
        if ("uniform_u" in block) == ("entries" in block):
            raise InvalidInputError("reservations: give exactly one of uniform_u or entries")
        if "uniform_u" in block:
            uniform_u = float(block["uniform_u"])
        else:
            reservations = ReservationSchedule(
                {(agent, int(lag)): float(u) for agent, lag, u in block["entries"]}
            )

    u_grid = t_grid = grid2 = None
    if "sweeps" in raw:
        sweeps = raw["sweeps"]
        _require_keys(sweeps, allowed=("u_grid", "t_grid", "grid2"), required=(), context="sweeps")
        u_grid = tuple(sweeps["u_grid"]) if "u_grid" in sweeps else None
        t_grid = tuple(sweeps["t_grid"]) if "t_grid" in sweeps else None
        if "grid2" in sweeps:
            block = sweeps["grid2"]
            _require_keys(
                block,
                allowed=("agent_a", "agent_b", "u_grid_a", "u_grid_b", "others_u"),
                required=("agent_a", "agent_b", "u_grid_a", "u_grid_b"),
                context="sweeps.grid2",
            )
            grid2 = TwoAgentGrid(
                agent_a=block["agent_a"],
                agent_b=block["agent_b"],
                u_grid_a=tuple(block["u_grid_a"]),
                u_grid_b=tuple(block["u_grid_b"]),
                others_u=float(block.get("others_u", 0.1)),
            )

    return ScenarioConfig(
        scenario_id=str(raw.get("scenario_id", path.stem)),
        central_agent=market["central_agent"],
        support_agents=tuple(market["support_agents"]) if "support_agents" in market else None,
        lag_spec=lag_spec,
        solver=solver,
        synthetic=synthetic,
        uniform_u=uniform_u,
        reservations=reservations,
        u_grid=u_grid,
        t_grid=t_grid,
        grid2=grid2,
        out_dir=str(raw.get("out_dir", "results")),
        seed=seed,
        **csv_fields,
    )


_DATA_KEYS = {
    "synthetic": (
        "n_independent",
        "ar_coefficients",
        "noise_std",
        "cross_coefficients",
        "dependent_phi",
        "dependent_noise_std",
    ),
    "csv": ("path", "schema", "normalization", "window_start"),
}
