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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ViabilityError, integer, real, sequence
from .regression import (
    DesignMatrix,
    SolverSettings,
    mse,
    ols_fit,
    weighted_lasso_fit,
)
from .timeseries import LagSpec, build_lag_matrix

__all__ = [
    "ReservationSchedule",
    "MarketConfig",
    "PaymentRecord",
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
    """Per-feature reservation prices: (agent_id, lag) -> u >= 0.

    Features missing from the schedule are offered for free (u = 0). Lags
    are integers of at least 1 (``2.0`` reads as 2) and reservations finite
    nonnegative numbers; a bool is neither.
    """

    entries: dict

    def __post_init__(self):
        entries = {}
        for (agent_id, lag), u in dict(self.entries).items():
            lag = integer(lag, "entries", "entries lag")
            if lag < 1:
                raise InvalidInputError(f"entries lag must be at least 1, got {lag}", field="entries")
            u = real(u, "entries", "entries u")
            if u < 0:
                raise InvalidInputError(
                    f"entries u must be nonnegative, got {u!r} for {(agent_id, lag)!r}", field="entries"
                )
            entries[(agent_id, lag)] = u
        object.__setattr__(self, "entries", entries)

    @classmethod
    def uniform(cls, agent_ids, max_lag: int, u: float) -> "ReservationSchedule":
        """Same reservation ``u`` on every lag of every listed agent."""
        return cls(
            {(agent_id, lag): u for agent_id in agent_ids for lag in range(1, max_lag + 1)}
        )

    def get(self, agent_id, lag: int) -> float:
        return self.entries.get((agent_id, lag), 0.0)


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
class PaymentRecord:
    """What one support feature earned in a clearing: |reservation * coefficient|."""

    agent_id: str
    lag: int
    coefficient: float
    reservation: float
    amount: float


@dataclass(frozen=True)
class ViabilityCheck:
    """Recomputed buyer-viability inequality with both sides attached.

    ``tolerance`` is the absolute slack the gap was held to.
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

    ``market`` holds the resolved config, target, designs and baseline fit
    that every clearing of it shares. ``total_payments`` is the sum of the
    payment records' amounts, which is also the fitted lasso penalty term;
    ``buyer_net_gain`` is ``market.baseline_mse - market_mse - total_payments``.
    """

    market: PreparedMarket
    market_beta: np.ndarray
    market_mse: float
    payments: tuple
    total_payments: float
    buyer_net_gain: float
    penalties: np.ndarray


def penalties_from_reservations(
    config: MarketConfig, reservations: ReservationSchedule, design: DesignMatrix
) -> np.ndarray:
    """Convert reservation prices into the per-column penalty vector.

    A support feature sold at reservation ``u`` is penalized by ``(T/2) * u``;
    the intercept and every column belonging to the central agent stay at
    zero so the buyer's own information is never shrunk. One pass over the
    schedule's entries writes each penalty at the column the design's
    ``column_index`` gives; features the schedule leaves out stay free. The
    design must hold exactly the config's agents (any sellers, for ``None``).
    """
    supports = config.support_agents
    expected = {config.central_agent, *(design.agents if supports is None else supports)}
    if design.agents != expected:
        raise InvalidInputError(
            f"design covers agents {sorted(map(str, design.agents))}, "
            f"config needs {sorted(map(str, expected))}"
        )
    half_T = design.n_rows / 2.0
    penalties = np.zeros(design.n_cols)
    for (agent_id, lag), u in reservations.entries.items():
        if agent_id == config.central_agent:
            if u != 0.0:
                raise InvalidInputError(
                    f"entries price central agent {agent_id!r}, which cannot sell its own features", "entries"
                )
            continue
        column = design.column_index.get((agent_id, lag))
        if column is None:
            raise InvalidInputError(
                f"entries price agent {agent_id!r} lag {lag}, which has no design column", "entries"
            )
        penalties[column] = half_T * u
    return penalties


class PreparedMarket:
    """The reservation-independent half of a clearing, built once.

    The target, the lag design and the buyer's baseline OLS fit depend only
    on the data and the window, so a sweep over reservations prepares them
    once and calls :meth:`clear` per point, and a sweep over training
    lengths prepares the longest window once and clears each shorter one on
    :meth:`window`. One lag matrix is built per market: the buyer's own
    design ``design_self`` is the intercept and buyer block that lead
    ``design_all``, a column view of it. Construction resolves the config
    against the series (:meth:`MarketConfig.resolve`), so ``config`` always
    names its sellers, and rejects two series for one agent.
    """

    def __init__(self, config: MarketConfig, all_series):
        by_id = {}
        for series in all_series:
            if series.agent_id in by_id:
                raise InvalidInputError(f"duplicate series for agent {series.agent_id!r}")
            by_id[series.agent_id] = series
        config = config.resolve(by_id)
        roster = [by_id[agent] for agent in (config.central_agent, *config.support_agents)]
        self._fit(config, roster[0].window(config.lag_spec.window_length), build_lag_matrix(roster, config.lag_spec))

    def _fit(self, config, target, design_all) -> None:
        """Attach the window's data and fit the buyer's own-features baseline."""
        own = 1 + config.lag_spec.max_lag  # the intercept and the buyer's lags
        self.config = config
        self.target = target
        self.design_self = DesignMatrix(design_all.values[:, :own], design_all.column_map[:own])
        self.baseline_beta = ols_fit(self.design_self, target)
        self.baseline_mse = mse(self.design_self, self.baseline_beta, target)
        self.design_all = design_all
        # (agent, lag, column) per seller feature, in payment-record order.
        self.seller_columns = tuple(
            (agent, lag, design_all.column_of(agent, lag))
            for agent in config.support_agents
            for lag in range(1, config.lag_spec.max_lag + 1)
        )

    def window(self, length: int) -> "PreparedMarket":
        """This market on the first ``length`` hours of its window.

        The target and the design are row-prefix views, not copies; the
        baseline fit and the Gram matrices are the shorter window's own, so
        it clears bitwise as a market prepared at ``length``.
        """
        spec = self.config.lag_spec
        if length == spec.window_length:
            return self
        if not 1 <= length <= spec.window_length:
            raise InvalidInputError(
                f"window of {length} hours outside 1..{spec.window_length}"
            )
        market = PreparedMarket.__new__(PreparedMarket)
        market._fit(
            dataclasses.replace(self.config, lag_spec=LagSpec(spec.max_lag, length)),
            self.target[:length],
            DesignMatrix(self.design_all.values[:length], self.design_all.column_map),
        )
        return market

    def clear(self, reservations: ReservationSchedule) -> MarketOutcome:
        """Clear at one reservation schedule: penalties, lasso fit, payments.

        Each support feature with cleared coefficient ``b`` and reservation
        ``u`` is paid ``|u * b|``, which sums exactly to the fitted penalty
        term. Every outcome passes :func:`verify_buyer_viability` before it
        is returned; otherwise :class:`ViabilityError` is raised with both
        sides of the inequality, which a correct solve cannot trigger.
        """
        penalties = penalties_from_reservations(self.config, reservations, self.design_all)
        market_beta = weighted_lasso_fit(self.design_all, self.target, penalties, self.config.solver)

        payments = []
        for agent, lag, column in self.seller_columns:
            coefficient = float(market_beta[column])
            reservation = reservations.get(agent, lag)
            payments.append(
                PaymentRecord(agent, lag, coefficient, reservation, abs(reservation * coefficient))
            )
        total_payments = sum((record.amount for record in payments), 0.0)

        market_mse = mse(self.design_all, market_beta, self.target)
        outcome = MarketOutcome(
            market=self,
            market_beta=market_beta,
            market_mse=market_mse,
            payments=tuple(payments),
            total_payments=total_payments,
            buyer_net_gain=self.baseline_mse - market_mse - total_payments,
            penalties=penalties,
        )
        check = verify_buyer_viability(outcome)
        if not check.holds:
            market_side = check.market_mse + check.total_payments
            raise ViabilityError(
                "clearing lost the buyer money "
                f"(loss plus payments {market_side:.9g} vs baseline {check.baseline_mse:.9g}); "
                "this indicates a solver defect",
                market_side=market_side,
                baseline_side=check.baseline_mse,
            )
        return outcome


def clear_market(config: MarketConfig, all_series, reservations: ReservationSchedule) -> MarketOutcome:
    """Run one clearing: baseline fit, weighted-lasso fit, payments, viability.

    Shorthand for ``PreparedMarket(config, all_series).clear(reservations)``;
    sweeps over reservations on one dataset should prepare the market once
    instead. Raises :class:`InvalidInputError` for a bad roster or schedule
    and :class:`ViabilityError` if the outcome fails buyer viability.
    """
    return PreparedMarket(config, all_series).clear(reservations)


def verify_buyer_viability(outcome: MarketOutcome) -> ViabilityCheck:
    """Re-check buyer viability from the outcome's raw matrices.

    Both squared-error sides are recomputed from ``outcome.market``'s designs,
    target and baseline coefficients and the cleared coefficients rather than
    trusting the stored MSEs; payments are summed from the payment records.
    The gap may reach ``VIABILITY_TOLERANCE`` times the baseline MSE, so the
    verdict does not depend on the data's units; for a buyer whose own
    features fit exactly, the baseline is floored at the rounding level of
    the target's mean square. Returns the verdict with both sides and their
    gap, never raising.
    """
    market, target = outcome.market, outcome.market.target
    market_mse = mse(market.design_all, outcome.market_beta, target)
    baseline_mse = mse(market.design_self, market.baseline_beta, target)
    total_payments = sum(record.amount for record in outcome.payments)
    market_side = market_mse + total_payments
    gap = market_side - baseline_mse
    slack = VIABILITY_TOLERANCE * max(baseline_mse, float(np.finfo(float).eps * (target @ target)) / target.size)
    return ViabilityCheck(
        holds=gap <= slack,
        market_mse=market_mse,
        total_payments=total_payments,
        baseline_mse=baseline_mse,
        gap=gap,
        tolerance=slack,
    )
