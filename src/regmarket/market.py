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

    def replacing(self, agent_id, max_lag: int, u: float) -> "ReservationSchedule":
        """Copy of the schedule with one agent's reservations set to ``u`` on all lags."""
        entries = dict(self.entries)
        for lag in range(1, max_lag + 1):
            entries[(agent_id, lag)] = u
        return ReservationSchedule(entries)


@dataclass(frozen=True)
class MarketConfig:
    """Who buys, who sells, and how the clearing regression is run."""

    central_agent: str
    support_agents: tuple
    lag_spec: LagSpec
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        supports = sequence(self.support_agents, "support_agents")
        if self.central_agent in supports:
            raise InvalidInputError(
                f"central agent {self.central_agent!r} cannot also be a support agent"
            )
        if len(set(supports)) != len(supports):
            raise InvalidInputError("duplicate support agent ids")
        object.__setattr__(self, "support_agents", supports)


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
    """Everything a clearing produced, plus the raw inputs needed to audit it.

    ``total_payments`` is the sum of the payment records' amounts, which is
    also the fitted lasso penalty term; ``buyer_net_gain`` is
    ``baseline_mse - market_mse - total_payments``.
    """

    config: MarketConfig
    baseline_beta: np.ndarray
    market_beta: np.ndarray
    baseline_mse: float
    market_mse: float
    payments: tuple
    total_payments: float
    buyer_net_gain: float
    design_self: DesignMatrix
    design_all: DesignMatrix
    target: np.ndarray
    penalties: np.ndarray


def penalties_from_reservations(
    config: MarketConfig, reservations: ReservationSchedule, design: DesignMatrix
) -> np.ndarray:
    """Convert reservation prices into the per-column penalty vector.

    A support feature sold at reservation ``u`` is penalized by ``(T/2) * u``;
    the intercept and every column belonging to the central agent stay at
    zero so the buyer's own information is never shrunk.
    """
    expected = {config.central_agent, *config.support_agents}
    present = {agent for _, agent, _ in design.feature_columns()}
    if present != expected:
        raise InvalidInputError(
            f"design covers agents {sorted(map(str, present))}, "
            f"config needs {sorted(map(str, expected))}"
        )
    feature_index = {
        (agent, lag): j for j, agent, lag in design.feature_columns()
    }
    for agent_id, lag in reservations.entries:
        if agent_id == config.central_agent:
            if reservations.entries[(agent_id, lag)] != 0.0:
                raise InvalidInputError(
                    f"central agent {agent_id!r} cannot sell its own features"
                )
            continue
        if (agent_id, lag) not in feature_index:
            raise InvalidInputError(
                f"reservation for agent {agent_id!r} lag {lag} has no design column"
            )

    half_T = design.n_rows / 2.0
    penalties = np.zeros(design.n_cols)
    for j, agent_id, lag in design.feature_columns():
        if agent_id != config.central_agent:
            penalties[j] = half_T * reservations.get(agent_id, lag)
    return penalties


class PreparedMarket:
    """The reservation-independent half of a clearing, built once.

    The target, both lag designs and the buyer's baseline OLS fit depend only
    on the data and the window, so a sweep over reservations prepares them
    once and calls :meth:`clear` per point, and a sweep over training
    lengths prepares the longest window once and clears each shorter one on
    :meth:`window`. Construction checks the roster: every configured agent
    needs exactly one series.
    """

    def __init__(self, config: MarketConfig, all_series):
        by_id = {}
        for series in all_series:
            if series.agent_id in by_id:
                raise InvalidInputError(f"duplicate series for agent {series.agent_id!r}")
            by_id[series.agent_id] = series
        missing = [a for a in (config.central_agent, *config.support_agents) if a not in by_id]
        if missing:
            raise InvalidInputError(f"no series provided for agents {missing}")

        spec = config.lag_spec
        central = by_id[config.central_agent]
        self._fit(
            config,
            central.window(spec.window_length),
            build_lag_matrix([central], spec),
            build_lag_matrix([central, *(by_id[a] for a in config.support_agents)], spec),
        )

    def _fit(self, config, target, design_self, design_all) -> None:
        """Attach the window's data and fit the buyer's own-features baseline."""
        self.config = config
        self.target = target
        self.design_self = design_self
        self.baseline_beta = ols_fit(design_self, target)
        self.baseline_mse = mse(design_self, self.baseline_beta, target)
        self.design_all = design_all
        # (agent, lag, column) per seller feature, in payment-record order.
        self.seller_columns = tuple(
            (agent, lag, design_all.column_of(agent, lag))
            for agent in config.support_agents
            for lag in range(1, config.lag_spec.max_lag + 1)
        )

    def window(self, length: int) -> "PreparedMarket":
        """This market on the first ``length`` hours of its window.

        The target and both designs are row-prefix views, not copies; the
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
            DesignMatrix(self.design_self.values[:length], self.design_self.column_map),
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
            config=self.config,
            baseline_beta=self.baseline_beta,
            market_beta=market_beta,
            baseline_mse=self.baseline_mse,
            market_mse=market_mse,
            payments=tuple(payments),
            total_payments=total_payments,
            buyer_net_gain=self.baseline_mse - market_mse - total_payments,
            design_self=self.design_self,
            design_all=self.design_all,
            target=self.target,
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


def verify_buyer_viability(outcome: MarketOutcome, tolerance: float = VIABILITY_TOLERANCE) -> ViabilityCheck:
    """Re-check buyer viability from the outcome's raw matrices.

    Both squared-error sides are recomputed from the stored designs, targets
    and coefficient vectors rather than trusting the stored MSEs; payments
    are summed from the payment records, not read from ``total_payments``.
    The gap may reach ``tolerance`` times the baseline MSE, so the verdict
    does not depend on the data's units; for a buyer whose own features fit
    exactly, the baseline is floored at the rounding level of the target's
    mean square. Returns the inequality verdict with both sides and their
    gap, never raising.
    """
    market_mse = mse(outcome.design_all, outcome.market_beta, outcome.target)
    baseline_mse = mse(outcome.design_self, outcome.baseline_beta, outcome.target)
    total_payments = sum(record.amount for record in outcome.payments)
    market_side = market_mse + total_payments
    gap = market_side - baseline_mse
    target = outcome.target
    slack = tolerance * max(baseline_mse, float(np.finfo(float).eps * (target @ target)) / target.size)
    return ViabilityCheck(
        holds=gap <= slack,
        market_mse=market_mse,
        total_payments=total_payments,
        baseline_mse=baseline_mse,
        gap=gap,
        tolerance=slack,
    )
