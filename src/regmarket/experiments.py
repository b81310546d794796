"""Experiment harness: one clearing, method comparison, reservation sweeps and training sweeps.

Every sweep reads its grid only from the scenario (``u_grid``, ``t_grid``,
``grid2``), where :class:`regmarket.data_io.ScenarioConfig` has checked it;
to vary a grid, ``dataclasses.replace`` the scenario. Every runner prepares
one :class:`regmarket.market.PreparedMarket` per scenario through
:func:`_prepare`: reservation sweeps clear it once per point, and the
training sweep prepares it at the longest window and clears each shorter
one on a row prefix of it. Every runner clears its points in one loop,
:func:`_clear_points`, which names the point a solver or viability error
came from. The loop warm-starts each reservation-sweep point after the
first from the previous point's coefficients on the same prepared market;
a sweep's first point, one-point runs and every training-sweep window (its
own market) start from their market's baseline fit. Buyer viability is checked inside the market on
every clearing, by the check :func:`regmarket.market.verify_buyer_viability`
makes, so a report can only contain buyer-viable outcomes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .data_io import ScenarioConfig, ingest_csv, to_agent_series
from .errors import ConvergenceError, InvalidInputError, ViabilityError
from .market import PreparedMarket, ReservationSchedule
from .market import clear_market, verify_buyer_viability  # noqa: F401  (names patched by bench/tracer.py)
from .regression import ols_fit
from .timeseries import LagSpec, synthetic_market_series

__all__ = [
    "ExperimentReport",
    "run_clearing",
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
    lag_spec = scenario.market.lag_spec
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
    try:
        return to_agent_series(report.dataset, start, lag_spec.window_length, lag_spec.max_lag)
    except InvalidInputError as err:
        if err.field == "start":  # the default start's first hour is always in the data
            raise err.renamed("csv_window_start") from None
        raise


def _prepare(scenario: ScenarioConfig) -> PreparedMarket:
    """Materialize the scenario's series and prepare its market once."""
    return PreparedMarket(scenario.market, materialize_series(scenario))


def _clear_points(points) -> ExperimentReport:
    """Clear ``(param, value, market, prices)`` points in order, one ``sweep_rows`` row each.

    A point on the same prepared market as the point before it is warm-started from that
    point's coefficients; the first point, and a point on another market, start from
    that market's ``baseline_start``.
    A :class:`ConvergenceError` or :class:`ViabilityError` at a point is raised again as the
    same object, ``"<param>=<value>: "`` put before its message unless the value is ``""``.
    """
    report, outcome = ExperimentReport(), None
    for param, value, market, prices in points:
        start = outcome.market_beta if outcome is not None and outcome.market is market else None
        try:
            outcome = market.clear(prices, start)
        except (ConvergenceError, ViabilityError) as err:
            if value != "":
                err.args = (f"{param}={value}: {err}",)
            raise
        report.sweep_rows.append((param, value, outcome))
    return report


def _paid(outcome) -> dict:
    """What each seller was paid in ``outcome``, over all its lags, by agent, added in feature order."""
    paid = {}
    for (agent, _), payment in zip(outcome.market.seller_features, outcome.payments.tolist()):
        paid[agent] = paid.get(agent, 0.0) + payment
    return paid


def run_clearing(scenario: ScenarioConfig) -> ExperimentReport:
    """Prepare the scenario's market and clear it once, at the scenario's schedule."""
    market = _prepare(scenario)
    return _clear_points([("clearing", "", market, market.prices(scenario.reservations))])


def run_method_comparison(scenario: ScenarioConfig) -> ExperimentReport:
    """Fit own-features OLS, all-features OLS and the weighted lasso side by side.

    All three methods see the same design matrices and target. For synthetic
    scenarios each coefficient row also carries the generative truth.
    """
    report = run_clearing(scenario)
    outcome = report.sweep_rows[0][2]
    market, truth = outcome.market, scenario.synthetic

    ols_all = ols_fit(market.design_all, market.target)
    n_self = market.design_self.n_cols  # the buyer's block leads design_all
    report.coefficient_rows = [
        {
            "agent": agent,
            "lag": lag,
            "true": None if truth is None else truth.coefficient(market.config.central_agent, agent, lag),
            "ols_self": float(market.baseline_beta[j]) if j < n_self else None,
            "ols_all": float(ols_all[j]),
            "lasso": float(outcome.market_beta[j]),
        }
        for j, agent, lag in market.design_all.feature_columns()
    ]
    return report


def run_u_sweep(scenario: ScenarioConfig) -> ExperimentReport:
    """One clearing per entry of the scenario's ``u_grid``.

    At each point every support feature's reservation is set to the grid value.
    """
    if scenario.u_grid is None:
        raise InvalidInputError("u sweep needs a non-empty u_grid")
    market = _prepare(scenario)
    return _clear_points(("u", u, market, market.prices(ReservationSchedule(default=u))) for u in scenario.u_grid)


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
    longest = LagSpec(max_lag=scenario.market.lag_spec.max_lag, window_length=max(grid))
    try:
        market = _prepare(dataclasses.replace(scenario, market=dataclasses.replace(scenario.market, lag_spec=longest)))
    except InvalidInputError as err:
        if err.field == "window_length":  # the data cannot hold the longest window the grid asks for
            raise err.renamed("t_grid") from None
        raise
    config = market.config
    prices = market.prices(scenario.reservations)  # every window has the same sellers
    report = _clear_points(("T", T, market.window(T), prices) for T in grid)
    for _, T, outcome in report.sweep_rows:
        for agent, paid in _paid(outcome).items():
            report.derived_rows.append({"T": T, "agent": agent, "payment": paid, "payment_per_step": paid / T})
        total = outcome.total_payments
        report.derived_rows.append(
            {"T": T, "agent": config.central_agent, "payment": total, "payment_per_step": total / T,
             "buyer_net_gain": outcome.buyer_net_gain}
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
    for name, agent in (("agent_a", agent_a), ("agent_b", agent_b)):
        if agent not in config.support_agents:
            raise InvalidInputError(f"{name} {agent!r} is not a support agent", name)

    pairs = [(ua, ub) for ua in grid.u_grid_a for ub in grid.u_grid_b]
    focal = [(agent, lag) for agent, lag in market.seller_features if agent in (agent_a, agent_b)]
    schedules = (  # every seller at others_u, but the focal two
        ReservationSchedule({(a, lag): ua if a == agent_a else ub for a, lag in focal}, grid.others_u)
        for ua, ub in pairs
    )
    report = _clear_points(
        (f"u({agent_a},{agent_b})", f"{ua!r};{ub!r}", market, market.prices(schedule))
        for (ua, ub), schedule in zip(pairs, schedules)
    )
    report.derived_rows = [
        {"u_a": ua, "u_b": ub, "payment_a": paid[agent_a], "payment_b": paid[agent_b]}
        for (ua, ub), paid in zip(pairs, (_paid(outcome) for _, _, outcome in report.sweep_rows))
    ]

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
