"""Experiment harness: method comparison, reservation sweeps and training sweeps.

Reservation sweeps prepare one :class:`regmarket.market.PreparedMarket` per
dataset and window and clear it once per point. Buyer viability is checked
inside the market, by :func:`regmarket.market.verify_buyer_viability` on
every clearing, so a report can only contain buyer-viable outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data_io import ScenarioConfig, ingest_csv, to_agent_series
from .errors import InvalidInputError
from .market import PreparedMarket, ReservationSchedule, clear_market
from .market import verify_buyer_viability  # noqa: F401  (name patched by bench/tracer.py)
from .regression import mse, ols_fit
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

    scenario_id: str
    sweep_rows: list = field(default_factory=list)  # (param, value, MarketOutcome)
    coefficient_rows: list | None = None
    derived_rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def materialize_series(scenario: ScenarioConfig, lag_spec: LagSpec | None = None) -> list:
    """Produce the agent series the scenario describes, seeded and windowed."""
    lag_spec = lag_spec or scenario.lag_spec
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


def _true_coefficient(scenario: ScenarioConfig, agent, lag: int):
    """Generative-model coefficient for a synthetic scenario's target, else None."""
    spec = scenario.synthetic
    if spec is None:
        return None
    ids = spec.agent_ids
    central = scenario.central_agent
    if central == ids[0]:
        if lag == 1 and agent == ids[0]:
            return spec.dependent_phi
        if lag == 1 and agent in ids[1:]:
            return spec.cross_coefficients[ids.index(agent) - 1]
        return 0.0
    if agent == central and lag == 1:
        return spec.ar_coefficients[ids.index(central) - 1]
    return 0.0


def run_method_comparison(scenario: ScenarioConfig) -> ExperimentReport:
    """Fit own-features OLS, all-features OLS and the weighted lasso side by side.

    All three methods see the same design matrices and target. For synthetic
    scenarios each coefficient row also carries the generative truth.
    """
    series = materialize_series(scenario)
    config = scenario.market_config([s.agent_id for s in series])
    schedule = scenario.schedule(config.support_agents)
    outcome = clear_market(config, series, schedule)

    ols_all = ols_fit(outcome.design_all, outcome.target)
    self_columns = {
        (agent, lag): j for j, agent, lag in outcome.design_self.feature_columns()
    }
    rows = []
    for j, agent, lag in outcome.design_all.feature_columns():
        own = self_columns.get((agent, lag))
        rows.append(
            {
                "agent": agent,
                "lag": lag,
                "true": _true_coefficient(scenario, agent, lag),
                "ols_self": None if own is None else float(outcome.baseline_beta[own]),
                "ols_all": float(ols_all[j]),
                "lasso": float(outcome.market_beta[j]),
            }
        )
    summary = {
        "mean_buyer_net_gain": outcome.buyer_net_gain,
        "ols_self_intercept": float(outcome.baseline_beta[0]),
        "ols_all_intercept": float(ols_all[0]),
        "lasso_intercept": float(outcome.market_beta[0]),
        "ols_all_mse": mse(outcome.design_all, ols_all, outcome.target),
    }
    return ExperimentReport(
        scenario_id=scenario.scenario_id,
        sweep_rows=[("clearing", "", outcome)],
        coefficient_rows=rows,
        summary=summary,
    )


def run_u_sweep(scenario: ScenarioConfig, u_grid=None, uniform: bool = True) -> ExperimentReport:
    """One clearing per reservation level.

    With ``uniform`` every support feature's reservation is set to the grid
    value; otherwise the scenario's own schedule is scaled multiplicatively
    by the grid value.
    """
    grid = tuple(u_grid) if u_grid is not None else scenario.u_grid
    if not grid:
        raise InvalidInputError("u sweep needs a non-empty u_grid")
    series = materialize_series(scenario)
    config = scenario.market_config([s.agent_id for s in series])
    base = scenario.schedule(config.support_agents)
    market = PreparedMarket(config, series)

    report = ExperimentReport(scenario_id=scenario.scenario_id)
    gains = []
    for u in grid:
        if uniform:
            schedule = ReservationSchedule.uniform(
                config.support_agents, config.lag_spec.max_lag, float(u)
            )
        else:
            schedule = ReservationSchedule(
                {key: float(u) * value for key, value in base.entries.items()}
            )
        outcome = market.clear(schedule)
        report.sweep_rows.append(("u", float(u), outcome))
        gains.append(outcome.buyer_net_gain)
        for agent in config.support_agents:
            paid = sum(r.amount for r in outcome.payments if r.agent_id == agent)
            report.derived_rows.append({"u": float(u), "agent": agent, "payment": paid})
    report.summary = {
        "clearings": len(grid),
        "mean_buyer_net_gain": sum(gains) / len(gains),
    }
    return report


def run_T_sweep(scenario: ScenarioConfig, t_grid=None) -> ExperimentReport:
    """One clearing per training length, on a single shared dataset.

    The dataset is materialized once at the longest requested window, so
    shorter windows are prefixes of it. Each clearing reports per-agent
    payments both as window totals and per time step.
    """
    grid = tuple(t_grid) if t_grid is not None else scenario.t_grid
    if not grid:
        raise InvalidInputError("T sweep needs a non-empty t_grid")
    longest = LagSpec(max_lag=scenario.lag_spec.max_lag, window_length=max(grid))
    series = materialize_series(scenario, lag_spec=longest)

    report = ExperimentReport(scenario_id=scenario.scenario_id)
    gains = []
    for T in grid:
        lag_spec = LagSpec(max_lag=scenario.lag_spec.max_lag, window_length=int(T))
        config = scenario.market_config([s.agent_id for s in series], lag_spec=lag_spec)
        schedule = scenario.schedule(config.support_agents)
        outcome = clear_market(config, series, schedule)
        report.sweep_rows.append(("T", int(T), outcome))
        gains.append(outcome.buyer_net_gain)
        for agent in config.support_agents:
            paid = sum(r.amount for r in outcome.payments if r.agent_id == agent)
            report.derived_rows.append(
                {
                    "T": int(T),
                    "agent": agent,
                    "payment": paid,
                    "payment_per_step": paid / T,
                }
            )
        report.derived_rows.append(
            {
                "T": int(T),
                "agent": config.central_agent,
                "payment": outcome.total_payments,
                "payment_per_step": outcome.total_payments / T,
                "buyer_net_gain": outcome.buyer_net_gain,
            }
        )
    report.summary = {
        "clearings": len(grid),
        "mean_buyer_net_gain": sum(gains) / len(gains),
    }
    return report


def run_two_agent_grid(
    scenario: ScenarioConfig,
    agent_a=None,
    agent_b=None,
    u_grid_a=None,
    u_grid_b=None,
) -> ExperimentReport:
    """Clear every combination of two focal sellers' reservations.

    The remaining sellers keep a fixed reservation (the scenario grid's
    ``others_u``). Cross-seller monotonicity is reported as a statistic in
    the summary, not asserted.
    """
    grid2 = scenario.grid2
    agent_a = agent_a if agent_a is not None else (grid2.agent_a if grid2 else None)
    agent_b = agent_b if agent_b is not None else (grid2.agent_b if grid2 else None)
    u_grid_a = tuple(u_grid_a) if u_grid_a is not None else (grid2.u_grid_a if grid2 else None)
    u_grid_b = tuple(u_grid_b) if u_grid_b is not None else (grid2.u_grid_b if grid2 else None)
    others_u = grid2.others_u if grid2 else 0.1
    if not agent_a or not agent_b or not u_grid_a or not u_grid_b:
        raise InvalidInputError("two-agent grid needs both agents and both grids")

    series = materialize_series(scenario)
    config = scenario.market_config([s.agent_id for s in series])
    for agent in (agent_a, agent_b):
        if agent not in config.support_agents:
            raise InvalidInputError(f"{agent!r} is not a support agent")
    max_lag = config.lag_spec.max_lag
    base = ReservationSchedule.uniform(config.support_agents, max_lag, others_u)
    market = PreparedMarket(config, series)

    report = ExperimentReport(scenario_id=scenario.scenario_id)
    payments = {}
    for ua in u_grid_a:
        for ub in u_grid_b:
            schedule = base.replacing(agent_a, max_lag, float(ua)).replacing(
                agent_b, max_lag, float(ub)
            )
            outcome = market.clear(schedule)
            value = f"{repr(float(ua))};{repr(float(ub))}"
            report.sweep_rows.append((f"u({agent_a},{agent_b})", value, outcome))
            paid_a = sum(r.amount for r in outcome.payments if r.agent_id == agent_a)
            paid_b = sum(r.amount for r in outcome.payments if r.agent_id == agent_b)
            payments[(ua, ub)] = (paid_a, paid_b)
            report.derived_rows.append(
                {"u_a": float(ua), "u_b": float(ub), "payment_a": paid_a, "payment_b": paid_b}
            )

    # Fraction of adjacent grid steps where one seller's payment does not
    # increase when the other seller raises its reservation.
    a_steps, a_drops = 0, 0
    b_steps, b_drops = 0, 0
    for ua in u_grid_a:
        for low, high in zip(u_grid_b, u_grid_b[1:]):
            a_steps += 1
            a_drops += payments[(ua, high)][0] <= payments[(ua, low)][0] + 1e-12
    for ub in u_grid_b:
        for low, high in zip(u_grid_a, u_grid_a[1:]):
            b_steps += 1
            b_drops += payments[(high, ub)][1] <= payments[(low, ub)][1] + 1e-12
    report.summary = {
        "clearings": len(u_grid_a) * len(u_grid_b),
        "a_payment_nonincreasing_in_b_frac": a_drops / a_steps if a_steps else 1.0,
        "b_payment_nonincreasing_in_a_frac": b_drops / b_steps if b_steps else 1.0,
    }
    return report
