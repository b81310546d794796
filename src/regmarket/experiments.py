"""Experiment harness: one clearing, method comparison, reservation sweeps and training sweeps.

Each runner returns the rows its command writes. Every sweep reads its grid
only from the scenario (``u_grid``, ``t_grid``, ``grid2``), where
:class:`regmarket.data_io.ScenarioConfig` has checked it; to vary a grid,
``dataclasses.replace`` the scenario. Every runner prepares one
:class:`regmarket.market.PreparedMarket` per scenario: a single clearing
through :func:`regmarket.market.clear_market`, a sweep through
:func:`_prepare`. Reservation sweeps clear it once per point, and the
training sweep prepares it at the longest window and clears each shorter
one on a row prefix of it. Every sweep clears its points in one loop,
:func:`_clear_points`, which names the point a solver or viability error
came from. The loop warm-starts each reservation-sweep point after the
first from the previous point's coefficients on the same prepared market;
a sweep's first point and every training-sweep window (its own market)
start from their market's baseline fit, as a single clearing does. Buyer
viability is checked inside the market on every clearing, by the check
:func:`regmarket.market.verify_buyer_viability` makes, so a runner can only
return buyer-viable outcomes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .data_io import ScenarioConfig, ingest_csv, to_agent_series
from .errors import ConvergenceError, InvalidInputError, ViabilityError
from .market import MarketOutcome, PreparedMarket, clear_market
from .market import verify_buyer_viability  # noqa: F401  (name patched by bench/tracer.py)
from .timeseries import LagSpec, SyntheticSpec, synthetic_market_series

__all__ = [
    "run_clearing",
    "run_method_comparison",
    "run_u_sweep",
    "run_T_sweep",
    "run_two_agent_grid",
    "materialize_series",
]


def materialize_series(scenario: ScenarioConfig) -> list:
    """Produce the agent series the scenario describes, seeded and windowed."""
    lag_spec, data = scenario.market.lag_spec, scenario.data
    if isinstance(data, SyntheticSpec):
        return synthetic_market_series(data, history=lag_spec.max_lag, window=lag_spec.window_length)
    report = ingest_csv(data.path, schema=data.schema, normalization=data.normalization)
    start = data.window_start
    if start is None:
        start = int(report.dataset.timestamps[0]) + lag_spec.max_lag
    try:
        return to_agent_series(report.dataset, start, lag_spec.window_length, lag_spec.max_lag)
    except InvalidInputError as err:
        if err.field == "start":  # the default start's first hour is always in the data
            raise err.renamed("window_start") from None
        raise


def _prepare(scenario: ScenarioConfig) -> PreparedMarket:
    """Materialize the scenario's series and prepare its market once."""
    return PreparedMarket(scenario.market, materialize_series(scenario))


def _clear_points(points) -> list:
    """Clear ``(param, value, market, prices)`` points in order, one ``(param, value, outcome)`` row each.

    A point on the same prepared market as the point before it is warm-started from that
    point's coefficients; the first point, and a point on another market, start from
    that market's ``baseline_start``.
    A :class:`ConvergenceError` or :class:`ViabilityError` at a point is raised again as the
    same object, ``"<param>=<value>: "`` put before its message.
    """
    rows, outcome = [], None
    for param, value, market, prices in points:
        start = outcome.market_beta if outcome is not None and outcome.market is market else None
        try:
            outcome = market.clear(prices, start)
        except (ConvergenceError, ViabilityError) as err:
            err.args = (f"{param}={value}: {err}",)
            raise
        rows.append((param, value, outcome))
    return rows


def _paid(outcome) -> dict:
    """What each seller was paid in ``outcome``, over all its lags, by agent, added in feature order."""
    paid = {}
    for (agent, _), payment in zip(outcome.market.seller_features, outcome.payments.tolist()):
        paid[agent] = paid.get(agent, 0.0) + payment
    return paid


def run_clearing(scenario: ScenarioConfig) -> MarketOutcome:
    """Clear the scenario's market once, at the scenario's schedule."""
    return clear_market(scenario.market, materialize_series(scenario), scenario.reservations)


def run_method_comparison(scenario: ScenarioConfig) -> list:
    """Fit own-features OLS, all-features OLS and the weighted lasso side by side, one row per feature.

    All three methods see the same design matrices and target. For synthetic
    scenarios each coefficient row also carries the generative truth.
    """
    outcome = run_clearing(scenario)
    market, truth = outcome.market, scenario.data if isinstance(scenario.data, SyntheticSpec) else None

    ols_all, *_ = np.linalg.lstsq(market.normal.gram, market.normal.moment, rcond=None)  # min-norm solution of G b = c
    return [
        {
            "agent": agent,
            "lag": lag,
            "true": None if truth is None else truth.coefficient(market.config.central_agent, agent, lag),
            "ols_self": float(market.baseline_start[j]) if agent == market.config.central_agent else None,
            "ols_all": float(ols_all[j]),
            "lasso": float(outcome.market_beta[j]),
        }
        for j, agent, lag in market.design_all.feature_columns()
    ]


def run_u_sweep(scenario: ScenarioConfig) -> list:
    """One clearing per entry of the scenario's ``u_grid``, a ``("u", u, outcome)`` row each.

    At each point every support feature's reservation is set to the grid value.
    """
    if scenario.u_grid is None:
        raise InvalidInputError("u sweep needs a non-empty u_grid")
    market = _prepare(scenario)
    return _clear_points(("u", u, market, np.full(len(market.seller_features), u)) for u in scenario.u_grid)


def run_T_sweep(scenario: ScenarioConfig) -> tuple[list, list]:
    """One clearing per entry of the scenario's ``t_grid``, on one prepared market.

    The market is prepared once, at the longest requested window. Every
    window starts at the same hour, so each shorter one clears on
    :meth:`regmarket.market.PreparedMarket.window`, whose target and designs
    are row prefixes of the longest window's; each point equals a direct
    clearing at its own window, bitwise on the longest window's series and
    to rounding on series cut to its own, whose shifts differ.

    Returns a ``("T", T, outcome)`` row per window, and per-step rows that give
    each window's payment to each seller and in total to the buyer, both as
    window totals and per time step.
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
    rows, per_step = _clear_points(("T", T, market.window(T), prices) for T in grid), []
    for _, T, outcome in rows:
        for agent, paid in _paid(outcome).items():
            per_step.append({"T": T, "agent": agent, "payment": paid, "payment_per_step": paid / T})
        total = outcome.total_payments
        per_step.append(
            {"T": T, "agent": config.central_agent, "payment": total, "payment_per_step": total / T,
             "buyer_net_gain": outcome.buyer_net_gain}
        )
    return rows, per_step


def run_two_agent_grid(scenario: ScenarioConfig) -> tuple[list, dict]:
    """Clear every combination of the scenario's ``grid2`` reservations.

    The two focal sellers take every pair from their grids; the remaining
    sellers keep ``others_u``. Returns a row per pair and a summary that
    reports cross-seller monotonicity as a statistic, not asserted.
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

    sellers = [agent for agent, _ in market.seller_features]
    rows = _clear_points(  # every seller at others_u, but the focal two
        (f"u({agent_a},{agent_b})", f"{ua!r};{ub!r}", market,
         np.array([ua if a == agent_a else ub if a == agent_b else grid.others_u for a in sellers]))
        for ua in grid.u_grid_a for ub in grid.u_grid_b
    )

    # Adjacent grid steps where one seller's payment does not increase when
    # the other seller raises its reservation. Rows run over u_b within u_a.
    # Payments are in MSE units, so the rounding slack scales with the baseline.
    paid, n_b = [_paid(outcome) for _, _, outcome in rows], len(grid.u_grid_b)
    b_steps = [(paid[k], paid[k + 1]) for k in range(len(paid) - 1) if (k + 1) % n_b]
    a_steps = list(zip(paid, paid[n_b:]))
    slack = 1e-12 * market.baseline_mse
    summary = {
        "a_payment_nonincreasing_in_b_frac": _nonincreasing_frac(b_steps, agent_a, slack),
        "b_payment_nonincreasing_in_a_frac": _nonincreasing_frac(a_steps, agent_b, slack),
    }
    return rows, summary


def _nonincreasing_frac(steps, agent: str, slack: float) -> float:
    """Share of ``(low, high)`` pairs of payments by agent whose ``agent`` entry rises by at most ``slack``."""
    if not steps:
        return 1.0
    return sum(high[agent] <= low[agent] + slack for low, high in steps) / len(steps)
