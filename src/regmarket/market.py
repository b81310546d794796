"""Clearing the regression market.

A central agent (the data buyer) regresses its in-window values on lagged
features from itself and from support agents (the sellers). Each seller
attaches a reservation price ``u`` to every feature it offers; clearing
converts that reservation into the feature's lasso penalty ``(T/2) * u``,
fits the weighted lasso, and pays the seller ``|u * coefficient|`` per
feature. Because the buyer's own features are never penalized, the cleared
loss plus total payments can never exceed the buyer's own-features baseline
loss, so a correct solve is always viable for the buyer.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ViabilityError, finite_array, integer, real, sequence
from .regression import NormalEquations, SolverSettings, mse, ols_fit, weighted_lasso_fit
from .timeseries import AgentSeries, LagSpec, build_lag_matrix

__all__ = [
    "ReservationSchedule",
    "MarketConfig",
    "MarketOutcome",
    "ViabilityCheck",
    "VIABILITY_TOLERANCE",
    "PreparedMarket",
    "penalties_from_reservations",
    "clear_market",
    "verify_buyer_viability",
]

# Slack allowed in the buyer-viability inequality, as a fraction of the
# buyer's baseline MSE; the inequality is exact at an exact optimum, so this
# only absorbs finite solver tolerance.
VIABILITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ReservationSchedule:
    """Per-feature reservation prices: (agent_id, lag) -> u >= 0, and ``default`` for every other feature.

    A seller feature the entries leave out is priced at ``default``, so
    ``ReservationSchedule(default=u)`` prices every seller feature of any
    market at ``u``. ``entries``, a mapping or pairs ``(agent_id, lag) -> u``,
    prices a feature once (``1`` and ``1.0`` are one lag). Lags are integers
    of at least 1 (``2.0`` reads as 2) and reservations, the default among
    them, finite nonnegative numbers; a bool is neither. Anything else is
    rejected naming ``entries`` or ``default``.
    """

    entries: dict = field(default_factory=dict)
    default: float = 0.0

    def __post_init__(self):
        items = self.entries.items() if isinstance(self.entries, Mapping) else self.entries
        try:
            pairs = [((agent_id, lag), u) for (agent_id, lag), u in items]
            distinct = len({feature for feature, _ in pairs})
        except (TypeError, ValueError):  # not a mapping or pairs, or a key that is no hashable (agent, lag) pair
            message = f"entries must map (agent, lag) pairs to prices, got {self.entries!r}"
            raise InvalidInputError(message, "entries") from None
        if distinct < len(pairs):  # equal numbers hash alike, so lags 1 and 1.0 are one feature
            features = [feature for feature, _ in pairs]
            agent_id, lag = next(feature for k, feature in enumerate(features) if feature in features[:k])
            raise InvalidInputError(f"entries price agent {agent_id!r} lag {lag!r} more than once", "entries")
        entries = {
            (agent_id, integer(lag, "entries", "entries lag", least=1)): real(u, "entries", "entries u", least=0)
            for (agent_id, lag), u in pairs
        }
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "default", real(self.default, "default", least=0))


@dataclass(frozen=True)
class MarketConfig:
    """Who buys, who sells, and how the clearing regression is run.

    ``support_agents=None`` means every other agent the data provides.
    """

    central_agent: str
    support_agents: tuple | None
    lag_spec: LagSpec
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.support_agents is None:
            return
        central, supports = self.central_agent, sequence(self.support_agents, "support_agents")
        if central in supports:
            raise InvalidInputError(f"support_agents includes the central agent {central!r}", "support_agents")
        repeated = [agent for k, agent in enumerate(supports) if agent in supports[:k]]
        if repeated:
            raise InvalidInputError(f"support_agents lists {repeated[0]!r} more than once", "support_agents")
        object.__setattr__(self, "support_agents", supports)

    def resolve(self, agent_ids) -> "MarketConfig":
        """This config with its sellers named: as listed, or else every other agent in data order.

        A central agent or seller missing from ``agent_ids`` is rejected naming its field.
        """
        available, central = list(agent_ids), self.central_agent
        if central not in available:
            raise InvalidInputError(f"central_agent {central!r} not in data source (has {available})", "central_agent")
        if self.support_agents is None:
            return dataclasses.replace(self, support_agents=tuple(a for a in available if a != central))
        absent = [a for a in self.support_agents if a not in available]
        if absent:
            raise InvalidInputError(f"support_agents {absent} not in data source", "support_agents")
        return self


@dataclass(frozen=True)
class ViabilityCheck:
    """One clearing's buyer-viability inequality with both sides attached.

    ``market_mse`` and ``total_payments`` are the market side: in a
    clearing's own check, the outcome's loss and payments; in
    :func:`verify_buyer_viability`, the loss of a fresh residual and the
    payments summed again. ``baseline_mse`` and ``tolerance``, the absolute
    slack the gap was held to, are the prepared market's.
    """

    holds: bool
    market_mse: float
    total_payments: float
    baseline_mse: float
    gap: float
    tolerance: float


@dataclass(frozen=True)
class MarketOutcome:
    """What one clearing produced, and the :class:`PreparedMarket` it was cleared on.

    ``market`` holds the resolved config, target, design and baseline fit
    that every clearing of it shares. ``market_mse`` is ``||y - X
    market_beta||^2 / T`` measured as a change from the market's baseline fit
    (see :meth:`PreparedMarket.clear`), the loss the clearing's viability
    check held: ``market.baseline_mse`` to the bit when the fit is its
    baseline start; otherwise it differs from a fresh residual's MSE only by
    rounding at the scale of the change. ``prices`` and ``payments`` are
    read-only arrays over ``market.seller_features``: each feature's
    reservation ``u`` and its pay ``|u * b|``. ``total_payments``, their
    sum, is also the fitted lasso penalty term, at the penalties
    ``penalties_from_reservations(market, prices)``; ``buyer_net_gain`` is
    ``market.baseline_mse - market_mse - total_payments``.
    """

    market: PreparedMarket
    market_beta: np.ndarray
    market_mse: float
    prices: np.ndarray
    payments: np.ndarray
    total_payments: float
    buyer_net_gain: float


def penalties_from_reservations(market: PreparedMarket, prices: np.ndarray) -> np.ndarray:
    """Convert per-seller-feature reservation prices into the per-column penalty vector.

    ``prices`` holds a finite nonnegative reservation per entry of
    ``market.seller_features``, whose penalty must be a finite float; else it
    is rejected naming ``prices``. A support feature sold at reservation ``u``
    is penalized by ``(T/2) * u``; the intercept and every column belonging to
    the central agent stay at zero so the buyer's own information is never shrunk.
    """
    prices = finite_array(prices, "prices", (len(market.seller_features),))
    if (prices < 0).any():
        raise InvalidInputError("prices must be nonnegative", "prices")
    T = market.design_all.n_rows
    ceiling = sys.float_info.max / (T / 2)  # rounded, so its own penalty may overflow; the float below it cannot
    ceiling = ceiling if T / 2 * ceiling < math.inf else math.nextafter(ceiling, 0.0)
    if (prices > ceiling).any():
        message = f"prices must be at most {ceiling!r}, above which the penalty (T/2) * u at T={T} is not finite"
        raise InvalidInputError(message, "prices")
    penalties = np.zeros(market.design_all.n_cols)
    penalties[market.seller_index] = T / 2.0 * prices
    return penalties


class PreparedMarket:
    """The reservation-independent half of a clearing, built once.

    The target, the lag design ``design_all``, their normal equations
    ``normal`` (``X'X``, ``X'y`` and ``y'y``), the buyer's baseline OLS fit
    as a full coefficient vector ``baseline_start`` = ``(b_self, 0)``, its
    MSE ``baseline_mse`` (from a fresh residual), its residual correlation
    ``baseline_correlation`` = ``X'y - X'X baseline_start`` and the
    buyer-viability slack ``viability_slack`` depend only on the data and
    the window, so a sweep over reservations prepares them once and calls
    :meth:`clear` per point, and a sweep over training lengths prepares the
    longest window once and clears each shorter one on :meth:`window`.
    One :class:`~regmarket.regression.DesignMatrix` is kept per market
    (:func:`build_lag_matrix`), with the buyer's block first. Its
    ``history`` holds the roster's hours, not the T x P matrix:
    ``normal`` is formed from those hours, every solve is given ``normal``
    and every loss is measured from the baseline, so no clearing builds
    ``design_all.values``; a caller that reads them, such as
    :func:`verify_buyer_viability`, builds them once. The baseline is fitted
    on the T x (1 + max_lag) block of the intercept and the buyer's lags,
    whose values are bitwise those of ``design_all.prefix(agents=1)``, so
    ``b_self`` is ``baseline_start[:1 + max_lag]``. Construction resolves the config
    against the series (:meth:`MarketConfig.resolve`), so ``config`` always
    names its sellers, and rejects two series for one agent.

    ``design_all``'s hours and values, ``target``, ``normal``'s arrays,
    ``baseline_start`` and ``baseline_correlation`` are read-only, so
    nothing written through the market can move them away from the baseline
    and slack computed here.
    Each series is first moved off its location into a copy
    (:func:`_off_location`), so writing into the caller's series after
    preparing leaves the market as it was prepared. ``target``,
    ``design_all`` and the intercept of every fit on them are in these
    shifted units; no lag coefficient, loss or payment depends on them.
    Preparing holds little beyond the caller's roster and the history
    (:func:`_shifted_design`): the baseline is fitted on the buyer's own lag
    block, built and dropped before the roster's history exists, and the
    history is filled in one pass over the roster that moves each seller
    only as it is read, so at most one seller's shifted copy is alive at any
    time and none is when the normal equations form. Only the buyer's copy
    stays alive, as the base of ``target``.
    """

    def __init__(self, config: MarketConfig, all_series):
        by_id = {}
        for series in all_series:
            if series.agent_id in by_id:
                raise InvalidInputError(f"duplicate series for agent {series.agent_id!r}")
            by_id[series.agent_id] = series
        config = config.resolve(by_id)
        roster = [by_id[agent] for agent in (config.central_agent, *config.support_agents)]
        self._fit(config, *_shifted_design(roster, config.lag_spec))

    def _fit(self, config, target, design_all, baseline, baseline_mse) -> None:
        """Attach the window's data, read-only, its normal equations and the buyer's baseline fit and MSE."""
        target.flags.writeable = False
        self.config = config
        self.target = target
        self.normal = NormalEquations(design_all, target)
        self.baseline_mse = baseline_mse
        # The gap buyer viability allows: VIABILITY_TOLERANCE times the
        # baseline MSE, floored at the rounding level of the target's mean
        # square for a buyer whose own features fit exactly.
        self.viability_slack = VIABILITY_TOLERANCE * max(
            self.baseline_mse, float(np.finfo(float).eps * self.normal.target_square) / target.size
        )
        self.design_all = design_all
        # The baseline as a full coefficient vector b0 = (b_self, 0), where
        # every cold solve starts, and its residual correlation q0 = c - G b0,
        # from which each clearing's loss is measured.
        self.baseline_start = np.zeros(design_all.n_cols)
        self.baseline_start[: baseline.size] = baseline
        self.baseline_start.flags.writeable = False
        self.baseline_correlation = self.normal.moment - self.normal.gram @ self.baseline_start
        self.baseline_correlation.flags.writeable = False
        # (agent, lag) per seller feature, the order of prices and payments, and its column.
        self.seller_features = tuple(
            (agent, lag) for agent in config.support_agents for lag in range(1, config.lag_spec.max_lag + 1)
        )
        self.seller_index = np.array([design_all.column_of(*f) for f in self.seller_features], dtype=np.intp)

    def window(self, length: int) -> "PreparedMarket":
        """This market on the first ``length`` hours of its window.

        The target and the design's hours are prefix views, not copies; the
        baseline fit and the normal equations are the shorter window's own, and
        the series' shifts this market's, so it clears bitwise as a market
        prepared at ``length`` from the same series.
        """
        spec, length = self.config.lag_spec, integer(length, "length")
        if length == spec.window_length:
            return self
        if not 1 <= length <= spec.window_length:
            raise InvalidInputError(
                f"window of {length} hours outside 1..{spec.window_length}"
            )
        market = PreparedMarket.__new__(PreparedMarket)
        target, design_all = self.target[:length], self.design_all.prefix(rows=length)
        market._fit(
            dataclasses.replace(self.config, lag_spec=LagSpec(spec.max_lag, length)),
            target,
            design_all,
            *_baseline(design_all.prefix(agents=1), target),
        )
        return market

    def prices(self, reservations: ReservationSchedule) -> np.ndarray:
        """The schedule's reservation per seller feature, aligned with ``seller_features``.

        Features the entries leave out cost the schedule's ``default``. The
        entries are checked against this market one by one: a price on a
        feature with no design column, or a nonzero one on the central agent,
        which cannot sell its own features, is rejected naming ``entries``.
        """
        by_column = np.full(self.design_all.n_cols, reservations.default)
        for (agent_id, lag), u in reservations.entries.items():
            if agent_id == self.config.central_agent and u != 0.0:
                raise InvalidInputError(
                    f"entries price central agent {agent_id!r}, which cannot sell its own features", "entries"
                )
            column = self.design_all.column_index.get((agent_id, lag))
            if column is None:
                raise InvalidInputError(
                    f"entries price agent {agent_id!r} lag {lag}, which has no design column", "entries"
                )
            by_column[column] = u
        return by_column[self.seller_index]

    def clear(self, prices, start=None) -> MarketOutcome:
        """Clear at one price per seller feature: penalties, lasso fit, payments.

        ``prices`` holds a reservation per entry of ``seller_features``
        (:meth:`prices` gives a schedule's), checked by
        :func:`penalties_from_reservations`; the outcome keeps a read-only copy.
        The fit starts from ``baseline_start``, or from the coefficients ``start``
        (see :func:`regmarket.regression.weighted_lasso_fit`), so a clearing at
        prices where the baseline already certifies returns its coefficients.

        Each support feature with cleared coefficient ``b`` and reservation
        ``u`` is paid ``|u * b|``, which sums exactly to the fitted penalty
        term. The loss ``market_mse`` is ``baseline_mse`` plus its change
        ``(d'G d - 2 d'q0) / T`` from the baseline, with ``d = b -
        baseline_start`` and ``q0 = baseline_correlation``: an exact
        identity for ``||y - X b||^2 / T`` that costs O(P^2) and reads no
        design. Its rounding is at the scale of the change, so a clearing
        that buys nothing from its baseline start reports ``baseline_mse``
        to the bit and a ``buyer_net_gain`` of exactly 0. The loss is both
        the outcome's and the market side of the buyer-viability check,
        whose baseline side and slack are this market's own. The check is
        the rule :func:`verify_buyer_viability` applies to a fresh residual;
        a failed one raises :class:`ViabilityError` with both sides of the
        inequality, which a correct solve cannot trigger.
        """
        penalties = penalties_from_reservations(self, prices)
        prices = np.array(prices, dtype=float)
        prices.flags.writeable = False
        if start is None:
            start = self.baseline_start
        market_beta = weighted_lasso_fit(
            self.design_all, self.target, penalties, self.config.solver, start, normal=self.normal
        )
        payments = np.abs(prices * market_beta[self.seller_index])
        payments.flags.writeable = False
        market_mse = self._change_mse(market_beta)
        check = _viability(self, market_mse, payments)
        if not check.holds:
            market_side = check.market_mse + check.total_payments
            raise ViabilityError(
                "clearing lost the buyer money "
                f"(loss plus payments {market_side:.9g} vs baseline {check.baseline_mse:.9g}); "
                "this indicates a solver defect",
                market_side=market_side,
                baseline_side=check.baseline_mse,
            )
        return MarketOutcome(
            market=self,
            market_beta=market_beta,
            market_mse=market_mse,
            prices=prices,
            payments=payments,
            total_payments=check.total_payments,
            buyer_net_gain=self.baseline_mse - market_mse - check.total_payments,
        )

    def _change_mse(self, beta: np.ndarray) -> float:
        """``||y - X beta||^2 / T`` as ``baseline_mse`` plus its change, in O(P^2).

        With d = beta - b0 and r0 = y - X b0, ||r0 - X d||^2 = ||r0||^2 +
        d'G d - 2 d'q0 exactly, so no T-length pass is made. Rounding enters
        at the scale of the change, not at that of y'y, and a fit equal to
        its baseline start gives ``baseline_mse`` to the bit. A squared norm
        is never negative, so a change that rounding carries below
        ``-baseline_mse`` reads 0.
        """
        change = beta - self.baseline_start
        moved = float(change @ (self.normal.gram @ change)) - 2.0 * float(change @ self.baseline_correlation)
        return max(self.baseline_mse + moved / self.design_all.n_rows, 0.0)


def _off_location(series: AgentSeries) -> AgentSeries:
    """``series`` with its values less its first sample v0, then less the mean of ``values - v0``.

    The free intercept absorbs any constant added to a series, but a far-off location drowns the fit
    in the Gram form's rounding. Two passes make a constant series exact zeros, which subtracting
    its plain mean often does not. Finite values whose steps or mean overflow are rejected naming
    the agent, with no warning.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            step = series.values - series.values[0]
            step -= np.mean(step)
    except FloatingPointError:
        message = f"values of agent {series.agent_id!r} overflow when moved off their location"
        raise InvalidInputError(message, "values") from None
    return dataclasses.replace(series, values=step)


def _baseline(buyer_design, target) -> tuple:
    """The buyer's own-features OLS fit on ``buyer_design`` and its MSE from a fresh residual."""
    baseline = ols_fit(buyer_design, target)
    return baseline, mse(buyer_design, baseline, target)


class _ShiftedRoster:
    """``buyer``, already moved off its location, then each of ``sellers``, moved by :func:`_off_location` as read."""

    def __init__(self, buyer, sellers):
        self.buyer, self.sellers = buyer, sellers

    def __len__(self) -> int:
        return 1 + len(self.sellers)

    def __iter__(self):
        yield self.buyer
        yield from map(_off_location, self.sellers)


def _shifted_design(roster, spec: LagSpec) -> tuple:
    """Target, lag design, baseline fit and its MSE of ``roster``, buyer first, each moved by :func:`_off_location`.

    The buyer is moved first, and its baseline fitted on its own lag block, ``build_lag_matrix([buyer],
    spec)``, bitwise the design's ``prefix(agents=1)``; that block is dropped before the roster's history
    exists. :func:`build_lag_matrix` then reads the roster once, moving each seller only as it reads it and
    dropping it once its row is filled, so at most one seller's shifted copy is alive at any time, and only
    the buyer's, the target's base, outlives this call.
    """
    buyer = _off_location(roster[0])
    target = buyer.window(spec.window_length)
    baseline = _baseline(build_lag_matrix([buyer], spec), target)
    return (target, build_lag_matrix(_ShiftedRoster(buyer, roster[1:]), spec), *baseline)


def clear_market(config: MarketConfig, all_series, reservations: ReservationSchedule) -> MarketOutcome:
    """Run one clearing: baseline fit, weighted-lasso fit, payments, viability.

    Shorthand for ``market.clear(market.prices(reservations))`` on
    ``market = PreparedMarket(config, all_series)``; sweeps over reservations
    on one dataset should prepare the market once instead. Raises
    :class:`InvalidInputError` for a bad roster or schedule and
    :class:`ViabilityError` if the outcome fails buyer viability.
    """
    market = PreparedMarket(config, all_series)
    return market.clear(market.prices(reservations))


def verify_buyer_viability(outcome: MarketOutcome) -> ViabilityCheck:
    """Re-check buyer viability from the outcome's cleared coefficients and payments.

    The market side is recomputed rather than trusted: the MSE from a fresh
    residual of ``outcome.market``'s design, target and the cleared
    coefficients, independent of the clearing's change-from-baseline loss,
    and the total from the ``payments`` array, so a forged ``market_beta``
    or payment is caught. The baseline side and the
    slack are the prepared market's, computed once from a fresh residual
    when it was built, over read-only arrays. The gap may reach
    ``VIABILITY_TOLERANCE`` times the baseline MSE, so the verdict does not
    depend on the data's units; for a buyer whose own features fit exactly,
    the baseline is floored at the rounding level of the target's mean
    square. Returns the verdict with both sides and their gap, never raising.
    """
    market = outcome.market
    return _viability(market, mse(market.design_all, outcome.market_beta, market.target), outcome.payments)


def _viability(market: PreparedMarket, market_mse: float, payments: np.ndarray) -> ViabilityCheck:
    """The buyer-viability inequality on ``market`` for one clearing's MSE and payments."""
    total_payments = sum(payments.tolist(), 0.0)  # left to right in feature order; np.sum adds pairwise
    gap = market_mse + total_payments - market.baseline_mse
    return ViabilityCheck(
        holds=gap <= market.viability_slack,
        market_mse=market_mse,
        total_payments=total_payments,
        baseline_mse=market.baseline_mse,
        gap=gap,
        tolerance=market.viability_slack,
    )
