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
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidInputError, finite_array, integer, real, sequence
from .regression import DesignMatrix, _row_sums

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

    The design is a :class:`LagDesign`, which keeps each agent's hours
    ``start - D .. start + T - 2`` and builds the T x P ``values`` only when
    they are read.
    """
    series_list = list(series_list)
    if not series_list:
        raise InvalidInputError("need at least one agent series")
    T, D = spec.window_length, spec.max_lag

    history = np.empty((1 + len(series_list), T + D - 1))
    history[0] = 1.0
    for row, series in zip(history[1:], series_list):
        if series.start_time < D:
            raise InvalidInputError(
                f"agent {series.agent_id!r}: needs {D} hours of history before the "
                f"window, has {series.start_time} (missing {D - series.start_time})"
            )
        start = series.start_time  # row t's window holds hours start - D + t .. start + t - 1
        row[:D] = series.values[start - D : start]
        row[D:] = series.window(T)[:-1]
    return LagDesign(history, [series.agent_id for series in series_list], D)


class LagDesign(DesignMatrix):
    """A lag design held as the hours its columns are shifts of.

    Row 0 of ``history`` is all ones, the intercept's hours, and row ``k``
    from 1 holds the ``k``-th agent's hours ``start - D .. start + T - 2``,
    so its column at block position ``d`` (0-based) is
    ``history[k, d : d + T]``. ``history`` is read-only and cut from series
    already checked finite, so it is not scanned again. ``values``, the
    T x P matrix, is built the first time it is read, by one strided copy of
    the sliding windows in row order, and kept read-only; :meth:`gram` and
    :meth:`moment` form the normal equations from ``history`` without it.
    """

    def __init__(self, history: np.ndarray, agents, max_lag: int):
        history.flags.writeable = False
        object.__setattr__(self, "history", history)
        object.__setattr__(self, "max_lag", max_lag)
        column_map = (None, *((agent, lag) for agent in agents for lag in range(max_lag, 0, -1)))
        self._map_columns(column_map, intercept=True)

    @property
    def n_rows(self) -> int:
        return self.history.shape[1] - self.max_lag + 1

    @property
    def n_cols(self) -> int:
        return 1 + (self.history.shape[0] - 1) * self.max_lag

    def _windows(self) -> np.ndarray:
        """``windows[t, k, d] = history[k, t + d]``, row t's block of agent k, as a read-only view."""
        H = self.history
        return as_strided(H, (self.n_rows, H.shape[0], self.max_lag), (H.strides[1], *H.strides), writeable=False)

    @cached_property
    def values(self) -> np.ndarray:
        values = np.empty((self.n_rows, self.n_cols))
        values[:, 0] = 1.0
        values[:, 1:].reshape(self.n_rows, -1, self.max_lag)[...] = self._windows()[:, 1:]
        values.flags.writeable = False
        return values

    def prefix(self, rows: int | None = None, agents: int | None = None) -> "LagDesign":
        """This design on its first ``rows`` rows and its first ``agents`` agents, over a view of ``history``."""
        D, rows = self.max_lag, self.n_rows if rows is None else rows
        names = [agent for agent, _ in self.column_map[1::D]][:agents]
        return LagDesign(self.history[: 1 + len(names), : rows + D - 1], names, D)

    def moment(self, y: np.ndarray) -> np.ndarray:
        """``X'y`` by :func:`_row_sums` over the sliding windows; the intercept's is that of row 0's last block position."""
        return _row_sums(self._windows(), y).ravel()[self.max_lag - 1 :]

    def gram(self) -> np.ndarray:
        """``X'X`` from ``history``, with no T x P matrix (the covariance method of linear prediction).

        With ``k = d - e >= 0``, the entry of columns ``(a, d)`` and ``(b, e)``
        is ``sum_s history[a, s + k] * history[b, s]`` over the hours ``s`` in
        ``e .. e + T - 1``. Each such range holds the hours ``D - 1 .. T - 1``,
        so one matrix product per shift ``k`` sums that common core for every
        pair of rows, and ``np.einsum`` sums each entry's ``min(D - 1, T)``
        hours outside it. An entry is its core plus its edge, both sums of its
        own products, so nothing cancels and it is within T eps of the sum of
        its terms' magnitudes. Row 0's block at position ``D - 1`` is the
        intercept. ``X'X`` is exactly symmetric: at ``k = 0`` the core is a
        product of one matrix with its own transpose, which numpy forms
        symmetric, and the edge sums multiply the same pairs in the same order.
        """
        H, D, T = self.history, self.max_lag, self.n_rows
        shifts, offsets, edges = _lag_pairs(D, T)
        blocks = np.einsum("apk,bpk->pab", H[:, edges + shifts[:, None]], H[:, edges])
        if T >= D:  # the core hours D - 1 .. T - 1
            blocks += np.stack([H[:, D - 1 + k : T + k] @ H[:, D - 1 : T].T for k in range(D)])[shifts]
        full = np.empty((H.shape[0] * D,) * 2)
        rows = full.reshape(H.shape[0], D, H.shape[0], D)  # rows[a, d, b, e]: columns (a, d) and (b, e)
        rows[:, offsets, :, shifts + offsets] = blocks.transpose(0, 2, 1)
        rows[:, shifts + offsets, :, offsets] = blocks
        return full[D - 1 :, D - 1 :].copy()


@lru_cache(maxsize=64)
def _lag_pairs(max_lag: int, window: int) -> tuple:
    """For each pair of block positions ``d >= e``: its shift ``d - e``, ``e``, and the hours outside the core it sums.

    The arrays are read-only, as every call with these arguments shares them.
    """
    shifts, offsets = np.array([(k, e) for k in range(max_lag) for e in range(max_lag - k)]).T
    edges = [[*range(e, min(max_lag - 1, e + window)), *range(max(window, max_lag - 1), e + window)] for e in offsets]
    edges = np.array(edges, dtype=np.intp)
    for array in (shifts, offsets, edges):
        array.flags.writeable = False
    return shifts, offsets, edges


def _ar_scan(noise: np.ndarray, phi) -> np.ndarray:
    """Turn ``noise`` into ``x_t = phi * x_(t-1) + noise_t`` from 0 along its last axis, in place.

    A doubling scan of the linear recurrence (Blelloch, *Prefix sums and
    their applications*, 1990): after the pass at ``lag`` each entry holds
    its last ``2 * lag`` noise terms weighted by powers of ``phi``, so
    ceil(log2 N) vector passes replace N scalar steps. ``phi`` broadcasts
    against ``noise``: a column of coefficients scans one series per row.
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
    seeds P1's noise, child ``k + 1`` seller ``k``'s. All sellers are
    scanned at once (:func:`_ar_scan`), each from 0 with ``BURN_IN`` samples
    dropped; then the sellers' weighted previous hours are added to P1's
    noise over the output hours after the first, as no seller data precedes
    them, and P1 is scanned. Each series equals the sample-by-sample
    recursion to rounding, and reruns of one spec are byte-identical.
    """
    history, window = integer(history, "history", least=0), integer(window, "window", least=1)
    length = history + window
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_independent + 1)
    buyer, *sellers = (
        np.random.default_rng(child).normal(0.0, std, BURN_IN + length)
        for child, std in zip(children, (spec.dependent_noise_std, *spec.noise_std))
    )
    sellers = _ar_scan(np.array(sellers), np.array(spec.ar_coefficients)[:, None])[:, BURN_IN:]
    forced = buyer[BURN_IN + 1 :]  # P1's output hours after the first
    for c, seller in zip(spec.cross_coefficients, sellers):
        forced += c * seller[:-1]
    buyer = _ar_scan(buyer, spec.dependent_phi)[BURN_IN:]
    roster = zip(spec.agent_ids, (buyer, *sellers))
    return [AgentSeries(agent_id, values, start_time=history) for agent_id, values in roster]
