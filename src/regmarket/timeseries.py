"""Lagged design matrices and synthetic AR/VAR market data.

Hour indexing is series-local: ``values[k]`` is the sample at hour ``k`` and
``start_time`` is the index of the first in-window sample, so everything
before it is lag history. Row ``t`` of a lag matrix (1-based, ``t = 1..T``)
pairs target hour ``start_time + t - 1`` with feature values from hours
``t - max_lag .. t - 1``. One recursion, ``_ar_path``, generates every
synthetic series: each seller is an AR(1) process, and the buyer P1 is one
forced by the sellers' previous hours. :class:`SyntheticSpec` checks every
generator setting and states the true coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, integer, real, sequence
from .regression import DesignMatrix

__all__ = [
    "AgentSeries",
    "LagSpec",
    "SyntheticSpec",
    "build_lag_matrix",
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
    package's recovery experiments and can be overridden freely;
    :meth:`coefficient` states that truth feature by feature.
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
                if entries == getattr(SyntheticSpec, name):  # a default fits the default roster only
                    raise InvalidInputError(
                        f"n_independent {self.n_independent} needs {name} of that length, not the default",
                        field="n_independent",
                    )
                raise InvalidInputError(
                    f"{name} must have one entry per independent agent "
                    f"({self.n_independent}), got {len(entries)}",
                    field=name,
                )
            object.__setattr__(self, name, entries)
        for name in ("dependent_phi", "dependent_noise_std"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        for name in ("ar_coefficients", "dependent_phi"):
            for phi in np.atleast_1d(getattr(self, name)).tolist():
                if not abs(phi) < 1:
                    raise InvalidInputError(f"{name} must be stationary (|phi| < 1), got {phi}", field=name)
        for name in ("noise_std", "dependent_noise_std"):
            for std in np.atleast_1d(getattr(self, name)).tolist():
                if not std > 0:
                    raise InvalidInputError(f"{name} must be positive, got {std}", field=name)

    @property
    def agent_ids(self) -> tuple:
        return tuple(f"P{k}" for k in range(1, self.n_independent + 2))

    def coefficient(self, target: str, agent: str, lag: int) -> float:
        """The true coefficient of ``agent``'s lag-``lag`` value in ``target``'s equation.

        P1 loads on its own and every seller's previous hour, and a seller
        on its own previous hour only; every other coefficient is 0.
        """
        ids = self.agent_ids
        if lag != 1 or agent not in ids or target not in (ids[0], agent):
            return 0.0
        if target == ids[0]:
            return (self.dependent_phi, *self.cross_coefficients)[ids.index(agent)]
        return self.ar_coefficients[ids.index(agent) - 1]


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

    blocks = [np.ones((T, 1))]
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
        start = series.start_time  # row t's window holds hours start - D + t .. start + t - 1
        blocks.append(np.lib.stride_tricks.sliding_window_view(series.values[start - D : start + T - 1], D))
        column_map += [(series.agent_id, lag) for lag in range(D, 0, -1)]
    return DesignMatrix(values=np.hstack(blocks), column_map=tuple(column_map))


def _ar_path(phi: float, noise, forcing=()) -> np.ndarray:
    """Run ``state = phi * state + eps`` from 0 over ``noise`` and drop the burn-in.

    Each of the last ``len(forcing)`` steps then adds its ``forcing`` entry.
    The loop runs on Python floats, overwriting each draw with its state: the
    same IEEE operations as on numpy scalars, without per-element boxing.
    """
    out = noise.tolist()
    state = 0.0
    unforced = len(out) - len(forcing)
    for t, eps in zip(range(unforced), out):
        state = phi * state + eps
        out[t] = state
    for t, driven in enumerate(forcing, start=unforced):
        state = phi * state + out[t]
        state += driven
        out[t] = state
    return np.array(out[BURN_IN:])


def synthetic_market_series(spec: SyntheticSpec, history: int, window: int) -> list:
    """Generate the full agent roster P1..P(n+1) ready for lag-matrix builds.

    Every returned series has ``history`` pre-window samples followed by
    ``window`` in-window samples. Per-agent seeds are spawned from
    ``spec.seed`` so the roster is reproducible as a whole: the first child
    seeds P1's noise, child ``k + 1`` seller ``k``'s. P1 is forced by the
    sellers over the output hours only, as no seller data precedes them.
    """
    if history < 0 or window < 1:
        raise InvalidInputError("history must be >= 0 and window >= 1")
    length = history + window
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_independent + 1)

    def noise(child, std):
        return np.random.default_rng(child).normal(0.0, std, BURN_IN + length)

    sellers = [
        _ar_path(phi, noise(child, std))
        for phi, std, child in zip(spec.ar_coefficients, spec.noise_std, children[1:])
    ]
    forcing = np.zeros(length)
    for c, seller in zip(spec.cross_coefficients, sellers):
        forcing[1:] += c * seller[:-1]
    buyer = _ar_path(spec.dependent_phi, noise(children[0], spec.dependent_noise_std), forcing.tolist())
    roster = zip(spec.agent_ids, (buyer, *sellers))
    return [AgentSeries(agent_id, values, start_time=history) for agent_id, values in roster]
