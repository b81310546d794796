"""Lagged design matrices and synthetic AR/VAR market data.

Hour indexing is series-local: ``values[k]`` is the sample at hour ``k`` and
``start_time`` is the index of the first in-window sample, so everything
before it is lag history. Row ``t`` of a lag matrix (1-based, ``t = 1..T``)
pairs target hour ``start_time + t - 1`` with feature values from hours
``t - max_lag .. t - 1``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, integer, real, sequence
from .regression import DesignMatrix

__all__ = [
    "AgentSeries",
    "LagSpec",
    "SyntheticSpec",
    "build_lag_matrix",
    "generate_ar1",
    "generate_var_dependent",
    "synthetic_market_series",
]

BURN_IN = 200  # generator warm-up samples discarded before the output window


@dataclass(frozen=True)
class AgentSeries:
    """One agent's hourly series, with lag history ahead of the window."""

    agent_id: str
    values: np.ndarray
    start_time: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] < 1:
            raise InvalidInputError(
                f"agent {self.agent_id!r}: values must be a non-empty vector"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError(f"agent {self.agent_id!r}: non-finite values")
        if not 0 <= self.start_time <= values.shape[0]:
            raise InvalidInputError(
                f"agent {self.agent_id!r}: start_time {self.start_time} outside series"
            )
        object.__setattr__(self, "values", values)

    def window(self, length: int) -> np.ndarray:
        """The first ``length`` in-window samples (the regression target)."""
        if self.start_time + length > self.values.shape[0]:
            raise InvalidInputError(
                f"agent {self.agent_id!r}: window of {length} hours needs "
                f"{self.start_time + length} samples, series has {self.values.shape[0]}"
            )
        return self.values[self.start_time : self.start_time + length]


@dataclass(frozen=True)
class LagSpec:
    """Fixed maximum lag D shared by all agents, and window length T."""

    max_lag: int
    window_length: int

    def __post_init__(self):
        for name in ("max_lag", "window_length"):
            value = integer(getattr(self, name), name)
            if value < 1:
                raise InvalidInputError(f"{name} must be at least 1, got {value}", field=name)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters for the synthetic market.

    Agents P2..P(n+1) are independent AR(1) processes; agent P1 additionally
    loads on every independent agent's previous-hour value with the given
    cross coefficients. These defaults are the declared ground truth for the
    package's recovery experiments and can be overridden freely.
    """

    n_independent: int = 4
    ar_coefficients: tuple = (0.5, 0.3, 0.3, 0.3)
    noise_std: tuple = (0.4, 1.0, 1.0, 2.0)
    cross_coefficients: tuple = (0.4, 0.3, 0.2, 0.1)
    dependent_phi: float = 0.2
    dependent_noise_std: float = 0.3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_independent", integer(self.n_independent, "n_independent"))
        if self.n_independent < 1:
            raise InvalidInputError("n_independent must be at least 1", field="n_independent")
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}", field="seed")
        for name in ("ar_coefficients", "noise_std", "cross_coefficients"):
            entries = tuple(real(v, name) for v in sequence(getattr(self, name), name))
            if len(entries) != self.n_independent:
                raise InvalidInputError(
                    f"{name} must have one entry per independent agent "
                    f"({self.n_independent}), got {len(entries)}",
                    field=name,
                )
            object.__setattr__(self, name, entries)
        for name in ("dependent_phi", "dependent_noise_std"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        for phi in (*self.ar_coefficients, self.dependent_phi):
            if not abs(phi) < 1:
                raise InvalidInputError(f"AR coefficient {phi} is not stationary")
        for std in (*self.noise_std, self.dependent_noise_std):
            if not std > 0:
                raise InvalidInputError("noise_std must be positive")

    @property
    def agent_ids(self) -> tuple:
        return tuple(f"P{k}" for k in range(1, self.n_independent + 2))


def build_lag_matrix(series_list, spec: LagSpec) -> DesignMatrix:
    """Stack an intercept and every agent's lagged columns into one design matrix.

    Column 0 is the intercept. After it, row ``t`` holds, for each agent in
    list order, the block ``x[t - D], x[t - D + 1], ..., x[t - 1]`` (oldest
    lag first), so within a block position ``d`` (1-based) carries lag
    ``D - d + 1``. ``column_map`` records the ``(agent_id, lag)`` of every
    feature column and ``None`` for the intercept.
    """
    series_list = list(series_list)
    if not series_list:
        raise InvalidInputError("need at least one agent series")
    T, D = spec.window_length, spec.max_lag

    columns = [np.ones(T)]
    column_map = [None]
    for series in series_list:
        if series.start_time < D:
            raise InvalidInputError(
                f"agent {series.agent_id!r}: needs {D} hours of history before the "
                f"window, has {series.start_time} (missing {D - series.start_time})"
            )
        if series.start_time + T > series.values.shape[0]:
            missing = series.start_time + T - series.values.shape[0]
            raise InvalidInputError(
                f"agent {series.agent_id!r}: window of {T} hours runs past the end "
                f"of the series (missing {missing} hours)"
            )
        for d in range(1, D + 1):
            lag = D - d + 1
            first = series.start_time - lag
            columns.append(series.values[first : first + T])
            column_map.append((series.agent_id, lag))
    return DesignMatrix(values=np.column_stack(columns), column_map=tuple(column_map))


def generate_ar1(phi: float, noise_std: float, length: int, seed, agent_id: str = "ar1") -> AgentSeries:
    """Simulate x_t = phi * x_{t-1} + eps_t with Gaussian noise.

    The first ``BURN_IN`` samples are discarded so the output starts at the
    stationary distribution. Deterministic given ``seed``.
    """
    if not abs(phi) < 1:
        raise InvalidInputError(f"AR coefficient {phi} is not stationary")
    if not noise_std > 0:
        raise InvalidInputError("noise_std must be positive")
    if length < 1:
        raise InvalidInputError("length must be at least 1")
    rng = np.random.default_rng(seed)
    # The recursion runs on Python floats, overwriting each noise draw with
    # its state: the same IEEE operations as on numpy scalars, without the
    # per-element boxing.
    out = rng.normal(0.0, noise_std, BURN_IN + length).tolist()
    phi = float(phi)
    state = 0.0
    for t, eps in enumerate(out):
        state = phi * state + eps
        out[t] = state
    return AgentSeries(agent_id=agent_id, values=np.array(out[BURN_IN:]), start_time=0)


def generate_var_dependent(
    drivers,
    cross_coefficients,
    own_phi: float,
    noise_std: float,
    seed,
    agent_id: str = "var",
) -> AgentSeries:
    """Simulate a series loading on its own lag and every driver's lag-1 value.

    x_t = own_phi * x_{t-1} + sum_k c_k * driver_k[t-1] + eps_t, aligned
    hour-for-hour with the drivers. Burn-in runs on the own-lag recursion
    alone (no driver data exists before the drivers' horizon), so with all
    cross coefficients zero the output matches :func:`generate_ar1` exactly.
    """
    drivers = list(drivers)
    cross = np.asarray(cross_coefficients, dtype=float)
    if cross.ndim != 1 or cross.shape[0] != len(drivers):
        raise InvalidInputError(
            f"need one cross coefficient per driver, got {cross.shape[0]} for {len(drivers)}"
        )
    if not abs(own_phi) < 1:
        raise InvalidInputError(f"AR coefficient {own_phi} is not stationary")
    if not noise_std > 0:
        raise InvalidInputError("noise_std must be positive")
    lengths = {d.values.shape[0] for d in drivers}
    if len(lengths) > 1:
        raise InvalidInputError(f"drivers differ in length: {sorted(lengths)}")
    starts = {d.start_time for d in drivers}
    if len(starts) > 1:
        raise InvalidInputError(f"drivers differ in start_time: {sorted(starts)}")
    if not drivers:
        raise InvalidInputError("need at least one driver series")
    length = lengths.pop()

    cross_input = np.zeros(length)
    for c, driver in zip(cross, drivers):
        cross_input[1:] += c * driver.values[:-1]

    rng = np.random.default_rng(seed)
    out = rng.normal(0.0, noise_std, BURN_IN + length).tolist()  # see generate_ar1
    own_phi = float(own_phi)
    state = 0.0
    for t in range(BURN_IN):
        state = own_phi * state + out[t]
        out[t] = state
    for t, driven in enumerate(cross_input.tolist(), start=BURN_IN):
        state = own_phi * state + out[t]
        state += driven
        out[t] = state
    return AgentSeries(agent_id=agent_id, values=np.array(out[BURN_IN:]), start_time=starts.pop())


def synthetic_market_series(spec: SyntheticSpec, history: int, window: int) -> list:
    """Generate the full agent roster P1..P(n+1) ready for lag-matrix builds.

    Every returned series has ``history`` pre-window samples followed by
    ``window`` in-window samples. Per-agent seeds are spawned from
    ``spec.seed`` so the roster is reproducible as a whole.
    """
    if history < 0 or window < 1:
        raise InvalidInputError("history must be >= 0 and window >= 1")
    length = history + window
    ids = spec.agent_ids
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_independent + 1)
    independents = [
        generate_ar1(phi, std, length, child, agent_id=ids[k + 1])
        for k, (phi, std, child) in enumerate(
            zip(spec.ar_coefficients, spec.noise_std, children[1:])
        )
    ]
    dependent = generate_var_dependent(
        independents,
        spec.cross_coefficients,
        spec.dependent_phi,
        spec.dependent_noise_std,
        children[0],
        agent_id=ids[0],
    )
    return [
        dataclasses.replace(series, start_time=history)
        for series in (dependent, *independents)
    ]
