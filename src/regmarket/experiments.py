"""Experiment harness: method comparison, reservation sweeps and training sweeps.

Every sweep reads its grid only from the scenario (``u_grid``, ``t_grid``,
``grid2``), where :class:`regmarket.data_io.ScenarioConfig` has checked it;
to vary a grid, ``dataclasses.replace`` the scenario. Every runner prepares
one :class:`regmarket.market.PreparedMarket` per scenario through
:func:`_prepare`: reservation sweeps clear it once per point, and the
training sweep prepares it at the longest window and clears each shorter
one on a row prefix of it. Buyer viability is checked inside the market,
by :func:`regmarket.market.verify_buyer_viability` on every clearing, so a
report can only contain buyer-viable outcomes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .data_io import ScenarioConfig, ingest_csv, to_agent_series
from .errors import InvalidInputError
from .market import PreparedMarket, ReservationSchedule
from .market import clear_market, verify_buyer_viability  # noqa: F401  (names patched by bench/tracer.py)
from .regression import ols_fit
from .timeseries import LagSpec, synthetic_market_series

__all__ = [
    "ExperimentReport",
    "run_method_comparison",
    "run_u_sweep",
    "run_T_sweep",
    "run_two_agent_grid",
    "materialize_series",
]


@dataclass
class ExperimentReport:
    """Results of one experiment: raw clearings plus tabulated views."""

    sweep_rows: list = field(default_factory=list)  # (param, value, MarketOutcome)
    coefficient_rows: list | None = None
    derived_rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def materialize_series(scenario: ScenarioConfig) -> list:
    """Produce the agent series the scenario describes, seeded and windowed."""
    lag_spec = scenario.lag_spec
    if scenario.synthetic is not None:
        return synthetic_market_series(
            scenario.synthetic, history=lag_spec.max_lag, window=lag_spec.window_length
        )
    report = ingest_csv(
        scenario.csv_path,
        schema=scenario.csv_schema,
        normalization=scenario.csv_normalization,
    )
    start = scenario.csv_window_start
    if start is None:
        start = int(report.dataset.timestamps[0]) + lag_spec.max_lag
    return to_agent_series(
        report.dataset, start, lag_spec.window_length, lag_spec.max_lag
    )


def _prepare(scenario: ScenarioConfig) -> PreparedMarket:
    """Materialize the scenario's series and prepare its market once."""
    series = materialize_series(scenario)
    return PreparedMarket(scenario.market_config([s.agent_id for s in series]), series)


def run_method_comparison(scenario: ScenarioConfig) -> ExperimentReport:
    """Fit own-features OLS, all-features OLS and the weighted lasso side by side.

    All three methods see the same design matrices and target. For synthetic
    scenarios each coefficient row also carries the generative truth.
    """
    market = _prepare(scenario)
    outcome = market.clear(scenario.schedule(market.config.support_agents))
    truth = scenario.synthetic

    ols_all = ols_fit(outcome.design_all, outcome.target)
    n_self = outcome.design_self.n_cols  # the buyer's block leads design_all
    rows = []
    for j, agent, lag in outcome.design_all.feature_columns():
        rows.append(
            {
                "agent": agent,
                "lag": lag,
                "true": None if truth is None else truth.coefficient(scenario.central_agent, agent, lag),
                "ols_self": float(outcome.baseline_beta[j]) if j < n_self else None,
                "ols_all": float(ols_all[j]),
                "lasso": float(outcome.market_beta[j]),
            }
        )
    return ExperimentReport(sweep_rows=[("clearing", "", outcome)], coefficient_rows=rows)


def run_u_sweep(scenario: ScenarioConfig) -> ExperimentReport:
    """One clearing per entry of the scenario's ``u_grid``.

    At each point every support feature's reservation is set to the grid value.
    """
    if scenario.u_grid is None:
        raise InvalidInputError("u sweep needs a non-empty u_grid")
    market = _prepare(scenario)
    config = market.config

    report = ExperimentReport()
    for u in scenario.u_grid:
        schedule = ReservationSchedule.uniform(config.support_agents, config.lag_spec.max_lag, u)
        report.sweep_rows.append(("u", u, market.clear(schedule)))
    return report


def run_T_sweep(scenario: ScenarioConfig) -> ExperimentReport:
    """One clearing per entry of the scenario's ``t_grid``, on one prepared market.

    The market is prepared once, at the longest requested window. Every
    window starts at the same hour, so each shorter one clears on
    :meth:`regmarket.market.PreparedMarket.window`, whose target and designs
    are row prefixes of the longest window's; each point equals a direct
    clearing at its own window. Each clearing reports per-agent payments
    both as window totals and per time step.
    """
    grid = scenario.t_grid
    if grid is None:
        raise InvalidInputError("T sweep needs a non-empty t_grid")
    longest = LagSpec(max_lag=scenario.lag_spec.max_lag, window_length=max(grid))
    market = _prepare(dataclasses.replace(scenario, lag_spec=longest))
    config = market.config
    schedule = scenario.schedule(config.support_agents)

    report = ExperimentReport()
    for T in grid:
        outcome = market.window(T).clear(schedule)
        report.sweep_rows.append(("T", T, outcome))
        for agent in config.support_agents:
            paid = sum(r.amount for r in outcome.payments if r.agent_id == agent)
            report.derived_rows.append(
                {
                    "T": T,
                    "agent": agent,
                    "payment": paid,
                    "payment_per_step": paid / T,
                }
            )
        report.derived_rows.append(
            {
                "T": T,
                "agent": config.central_agent,
                "payment": outcome.total_payments,
                "payment_per_step": outcome.total_payments / T,
                "buyer_net_gain": outcome.buyer_net_gain,
            }
        )
    return report


def run_two_agent_grid(scenario: ScenarioConfig) -> ExperimentReport:
    """Clear every combination of the scenario's ``grid2`` reservations.

    The two focal sellers take every pair from their grids; the remaining
    sellers keep ``others_u``. Cross-seller monotonicity is reported as a
    statistic in the summary, not asserted.
    """
    grid = scenario.grid2
    if grid is None:
        raise InvalidInputError("two-agent grid needs both agents and both grids")
    agent_a, agent_b = grid.agent_a, grid.agent_b
    market = _prepare(scenario)
    config = market.config
    for agent in (agent_a, agent_b):
        if agent not in config.support_agents:
            raise InvalidInputError(f"{agent!r} is not a support agent")
    max_lag = config.lag_spec.max_lag
    base = ReservationSchedule.uniform(config.support_agents, max_lag, grid.others_u)

    report = ExperimentReport()
    for ua in grid.u_grid_a:
        for ub in grid.u_grid_b:
            schedule = base.replacing(agent_a, max_lag, ua).replacing(agent_b, max_lag, ub)
            outcome = market.clear(schedule)
            report.sweep_rows.append((f"u({agent_a},{agent_b})", f"{ua!r};{ub!r}", outcome))
            report.derived_rows.append(
                {
                    "u_a": ua,
                    "u_b": ub,
                    "payment_a": sum(r.amount for r in outcome.payments if r.agent_id == agent_a),
                    "payment_b": sum(r.amount for r in outcome.payments if r.agent_id == agent_b),
                }
            )

    # Adjacent grid steps where one seller's payment does not increase when
    # the other seller raises its reservation. Rows run over u_b within u_a.
    # Payments are in MSE units, so the rounding slack scales with the baseline.
    rows, n_b = report.derived_rows, len(grid.u_grid_b)
    b_steps = [(rows[k], rows[k + 1]) for k in range(len(rows) - 1) if (k + 1) % n_b]
    a_steps = list(zip(rows, rows[n_b:]))
    slack = 1e-12 * market.baseline_mse
    report.summary = {
        "a_payment_nonincreasing_in_b_frac": _nonincreasing_frac(b_steps, "payment_a", slack),
        "b_payment_nonincreasing_in_a_frac": _nonincreasing_frac(a_steps, "payment_b", slack),
    }
    return report


def _nonincreasing_frac(steps, key, slack: float) -> float:
    """Share of ``(low, high)`` row pairs whose ``key`` rises by at most ``slack``."""
    if not steps:
        return 1.0
    return sum(high[key] <= low[key] + slack for low, high in steps) / len(steps)
