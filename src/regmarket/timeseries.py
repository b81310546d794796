"""Lagged design matrices and synthetic AR/VAR market data.

Hour indexing is series-local: ``values[k]`` is the sample at hour ``k`` and
``start_time`` is the index of the first in-window sample, so everything
before it is lag history. Row ``t`` of a lag matrix (1-based, ``t = 1..T``)
pairs target hour ``start_time + t - 1`` with feature values from hours
``t - max_lag .. t - 1``. One vectorized scan of ``x_t = phi * x_(t-1) +
eps_t``, ``_ar_scan``, generates every synthetic series: each seller is an
AR(1) process, and the buyer P1 is one forced by the sellers' previous
hours. The roster is reproducible per seed and equals the sample-by-sample
recursion to rounding. :class:`SyntheticSpec` checks every generator
setting and states the true coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, finite_array, integer, real, sequence
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
        values = finite_array(self.values, "values", (None,), f"values of agent {self.agent_id!r}")
        start_time = integer(self.start_time, "start_time", f"start_time of agent {self.agent_id!r}")
        if not 0 <= start_time <= values.shape[0]:
            raise InvalidInputError(
                f"start_time of agent {self.agent_id!r} is {start_time}, outside the series", "start_time"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "start_time", start_time)

    def _with_values(self, values: np.ndarray) -> "AgentSeries":
        """This series with ``values``, finite float64 ones of its length, in its place; not scanned again."""
        series = AgentSeries.__new__(AgentSeries)
        vars(series).update(agent_id=self.agent_id, values=values, start_time=self.start_time)
        return series

    def window(self, length: int) -> np.ndarray:
        """The first ``length`` in-window samples (the regression target)."""
        length = integer(length, "length", least=1)
        needed, held = self.start_time + length, self.values.shape[0]
        if needed > held:
            raise InvalidInputError(
                f"agent {self.agent_id!r}: window of {length} hours needs "
                f"{needed} samples, series has {held} (missing {needed - held})"
            )
        return self.values[self.start_time : needed]


@dataclass(frozen=True)
class LagSpec:
    """Fixed maximum lag D shared by all agents, and window length T."""

    max_lag: int
    window_length: int

    def __post_init__(self):
        for name in ("max_lag", "window_length"):
            object.__setattr__(self, name, integer(getattr(self, name), name, least=1))


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
        object.__setattr__(self, "n_independent", integer(self.n_independent, "n_independent", least=1))
        object.__setattr__(self, "seed", integer(self.seed, "seed", least=0))
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
    """Stack an intercept and every agent's lagged columns into one lag design.

    Column 0 is the intercept. After it, row ``t`` holds, for each agent in
    list order, the block ``x[t - D], x[t - D + 1], ..., x[t - 1]`` (oldest
    lag first), so within a block position ``d`` (1-based) carries lag
    ``D - d + 1``. ``column_map`` records the ``(agent_id, lag)`` of every
    feature column and ``None`` for the intercept.

    The :class:`~regmarket.regression.DesignMatrix` holds each agent's hours
    ``start - D .. start + T - 2`` as a row of its ``history`` and builds the
    T x P ``values`` only when they are read.

    ``series_list`` is sized, and read once, in order: the history is sized
    from its ``len``, and each series is dropped once its row is filled,
    before the next is read, so a sequence that makes each series as it is
    read (a prepared market's shifted roster) keeps one alive at a time.
    """
    if not len(series_list):
        raise InvalidInputError("need at least one agent series")
    T, D = spec.window_length, spec.max_lag

    history = np.empty((1 + len(series_list), T + D - 1))
    history[0] = 1.0
    agent_ids = []
    for series in series_list:
        if series.start_time < D:
            raise InvalidInputError(
                f"agent {series.agent_id!r}: needs {D} hours of history before the "
                f"window, has {series.start_time} (missing {D - series.start_time})"
            )
        start = series.start_time  # row t's window holds hours start - D + t .. start + t - 1
        row = history[1 + len(agent_ids)]
        row[:D] = series.values[start - D : start]
        row[D:] = series.window(T)[:-1]
        agent_ids.append(series.agent_id)
        del series  # before the next is read
    column_map = (None, *((agent_id, lag) for agent_id in agent_ids for lag in range(D, 0, -1)))
    return DesignMatrix._lagged(history, D, column_map)


def _ar_scan(noise: np.ndarray, phi) -> np.ndarray:
    """Turn ``noise`` into ``x_t = phi * x_(t-1) + noise_t`` from 0 along its last axis, in place.

    A doubling scan of the linear recurrence (Blelloch, *Prefix sums and
    their applications*, 1990): after the pass at ``lag`` each entry holds
    its last ``2 * lag`` noise terms weighted by powers of ``phi``, so
    ceil(log2 N) vector passes replace N scalar steps. ``phi`` broadcasts
    against ``noise``.
    """
    lag = 1
    while lag < noise.shape[-1]:
        noise[..., lag:] += phi**lag * noise[..., :-lag]
        lag *= 2
    return noise


def synthetic_market_series(spec: SyntheticSpec, history: int, window: int) -> list:
    """Generate the full agent roster P1..P(n+1) ready for lag-matrix builds.

    Every returned series has ``history`` pre-window samples followed by
    ``window`` in-window samples. Per-agent seeds are spawned from
    ``spec.seed`` so the roster is reproducible as a whole: the first child
    seeds P1's noise, child ``k + 1`` seller ``k``'s. The noise is drawn
    straight into one ``(n + 1) x (BURN_IN + history + window)`` array, row
    0 for P1 and row ``k`` for seller ``k``, which is then scanned in place,
    so no per-agent draw outlives its row and every returned series is a
    view of that one array. The sellers' rows are scanned one at a time
    (:func:`_ar_scan`), so each pass's temporary is one row long, each from
    0 with ``BURN_IN`` samples dropped; then the sellers' weighted previous
    hours are added to P1's noise over the output hours after the first, as
    no seller data precedes them, and P1 is scanned. Each series equals the
    sample-by-sample recursion to rounding, and reruns of one spec are
    byte-identical.
    """
    history, window = integer(history, "history", least=0), integer(window, "window", least=1)
    length = history + window
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_independent + 1)
    noise = np.empty((spec.n_independent + 1, BURN_IN + length))  # row 0 is P1, row k seller k
    for row, child, std in zip(noise, children, (spec.dependent_noise_std, *spec.noise_std)):
        row[:] = np.random.default_rng(child).normal(0.0, std, BURN_IN + length)
    # Each phi stays a 1-element array, so its powers take the array path and bits of a joint scan.
    for row, phi in zip(noise[1:], np.array(spec.ar_coefficients)[:, None]):
        _ar_scan(row, phi)
    sellers = noise[1:, BURN_IN:]
    forced = noise[0, BURN_IN + 1 :]  # P1's output hours after the first
    for c, seller in zip(spec.cross_coefficients, sellers):
        forced += c * seller[:-1]
    buyer = _ar_scan(noise[0], spec.dependent_phi)[BURN_IN:]
    roster = zip(spec.agent_ids, (buyer, *sellers))
    return [AgentSeries(agent_id, values, start_time=history) for agent_id, values in roster]
