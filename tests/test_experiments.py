import dataclasses
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import (
    AgentSeries,
    ConvergenceError,
    InvalidInputError,
    LagSpec,
    MarketConfig,
    ReservationSchedule,
    SyntheticSpec,
    ViabilityError,
    clear_market,
    penalties_from_reservations,
    run_clearing,
    run_T_sweep,
    run_method_comparison,
    run_two_agent_grid,
    run_u_sweep,
    synthetic_market_series,
    weighted_lasso_fit,
)
from regmarket import experiments
from regmarket import market as market_module
from regmarket.data_io import CsvSource, ScenarioConfig, TwoAgentGrid, load_scenario
from regmarket.regression import SolverSettings

from oracles import column_kkt_bound, column_kkt_residual, normal_equation_ols, penalized_objective


def scenario(central="P1", seed=0, window=240, max_lag=3, **kwargs):
    return ScenarioConfig(
        scenario_id="test",
        market=MarketConfig(central, None, LagSpec(max_lag=max_lag, window_length=window)),
        data=SyntheticSpec(seed=seed),
        **kwargs,
    )


def capture_prepared(monkeypatch) -> list:
    """A list that collects every market the runners prepare from now on."""
    prepared, prepare = [], experiments._prepare

    def recording(scenario):
        prepared.append(prepare(scenario))
        return prepared[-1]

    monkeypatch.setattr(experiments, "_prepare", recording)
    return prepared


def own_lag_fit(values, start: int, window: int, max_lag: int) -> dict:
    """Least squares of ``values[start:start + window]`` on an intercept and its own lags, by lag."""
    hours = np.arange(start, start + window)
    X = np.column_stack([np.ones(window)] + [values[hours - lag] for lag in range(1, max_lag + 1)])
    beta = np.linalg.lstsq(X, values[hours], rcond=None)[0]
    return {lag: beta[lag] for lag in range(1, max_lag + 1)}


def csv_scenario(directory, **kwargs):
    """Zones A, B and C of a random walk, with the buyer B in the middle column."""
    values = np.random.default_rng(11).normal(size=(70, 3)).cumsum(axis=0) * 0.1
    lines = ["timestamp,A,B,C"] + [f"{t},{','.join(map(repr, row))}" for t, row in enumerate(values.tolist())]
    path = Path(directory) / "zones.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    market = MarketConfig("B", None, LagSpec(max_lag=2, window_length=60))
    return ScenarioConfig(scenario_id="csv", market=market, data=CsvSource(str(path)), **kwargs), values


class TestRunClearing:
    """``clear`` and ``compare-methods`` clear through ``clear_market``, with the same numbers as a direct call."""

    @staticmethod
    def assert_equals_direct_clearing(sc):
        outcome = run_clearing(sc)
        series = experiments.materialize_series(sc)
        config = sc.market.resolve(s.agent_id for s in series)
        direct = clear_market(config, series, sc.reservations)
        assert outcome.market.config == config
        assert np.array_equal(outcome.market_beta, direct.market_beta)
        assert outcome.market_mse == direct.market_mse
        assert outcome.total_payments == direct.total_payments
        assert np.array_equal(outcome.payments, direct.payments) and np.array_equal(outcome.prices, direct.prices)
        lasso = [row["lasso"] for row in run_method_comparison(sc)]
        assert lasso == [float(outcome.market_beta[j]) for j, _, _ in outcome.market.design_all.feature_columns()]

    def test_synthetic(self):
        self.assert_equals_direct_clearing(scenario("P1", seed=2, reservations=ReservationSchedule(default=0.05)))

    def test_csv_with_omitted_sellers(self, tmp_path):
        sc, _ = csv_scenario(tmp_path, reservations=ReservationSchedule({("A", 1): 0.05, ("C", 2): 0.02}))
        self.assert_equals_direct_clearing(sc)


class TestFailingPointIsNamed:
    """An error raised at a sweep point is raised again as itself, naming the point."""

    @staticmethod
    def fail_second_fit(monkeypatch, failure):
        fit, calls = market_module.weighted_lasso_fit, []

        def failing(X, y, penalties, settings, start=None, *, normal=None):
            calls.append(None)
            return failure(X) if len(calls) == 2 else fit(X, y, penalties, settings, start, normal=normal)

        monkeypatch.setattr(market_module, "weighted_lasso_fit", failing)

    def test_convergence_error_keeps_its_object_and_attributes(self, monkeypatch):
        beta = np.zeros(3)
        forced = ConvergenceError("forced for testing", last_beta=beta, kkt_residual=0.5)

        def fail(X):
            raise forced

        self.fail_second_fit(monkeypatch, fail)
        with pytest.raises(ConvergenceError) as raised:
            run_u_sweep(scenario("P1", seed=0, u_grid=(0.0, 0.05, 0.2)))
        assert raised.value is forced
        assert str(raised.value) == "u=0.05: forced for testing"
        assert raised.value.last_beta is beta
        assert raised.value.kkt_residual == 0.5

    def test_viability_error_keeps_both_sides(self, monkeypatch):
        self.fail_second_fit(monkeypatch, lambda X: np.zeros(X.n_cols))
        with pytest.raises(ViabilityError) as raised:
            run_u_sweep(scenario("P1", seed=0, u_grid=(0.0, 0.05, 0.2)))
        assert type(raised.value) is ViabilityError
        assert str(raised.value).startswith("u=0.05: clearing lost the buyer money")
        assert raised.value.market_side > raised.value.baseline_side > 0

    def test_single_clearing_adds_no_point(self, monkeypatch):
        self.fail_second_fit(monkeypatch, lambda X: np.zeros(X.n_cols))
        run_clearing(scenario("P1", seed=0))  # the first fit clears
        with pytest.raises(ViabilityError, match="^clearing lost the buyer money"):
            run_clearing(scenario("P1", seed=0))


class TestMethodComparison:
    def test_correlated_central_recovers_structure(self):
        rows = {(r["agent"], r["lag"]): r for r in run_method_comparison(scenario("P1", seed=0))}
        assert len(rows) == 15  # 5 agents x 3 lags
        # Lasso keeps every true lag-1 cross feature and drops deeper lags.
        for agent in ("P2", "P3", "P4", "P5"):
            assert rows[(agent, 1)]["lasso"] != 0.0
            assert abs(rows[(agent, 2)]["lasso"]) < 0.02
            assert abs(rows[(agent, 3)]["lasso"]) < 0.02
        spurious = [r for r in rows.values() if r["true"] == 0.0]
        ols_noise = sum(abs(r["ols_all"]) > 0.02 for r in spurious)
        lasso_noise = sum(abs(r["lasso"]) > 0.02 for r in spurious)
        assert ols_noise > lasso_noise

    @pytest.mark.parametrize("seed", [0, 3])
    def test_ols_all_matches_the_normal_equation_oracle(self, tmp_path, seed):
        # On this well-conditioned design the least-squares fit is the solve of the
        # normal equations, which the oracle forms in long double.
        sc = bench_scenario("paper-u", seed, tmp_path)
        market = experiments._prepare(sc)
        expected = normal_equation_ols(market.design_all.values, market.target)[1:]
        ols_all = np.array([row["ols_all"] for row in run_method_comparison(sc)])
        assert np.max(np.abs(ols_all - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("copy", ["noisy", "scaled"])
    def test_ols_all_is_least_squares_on_a_near_collinear_roster(self, monkeypatch, copy):
        # P6 repeats P2, with 1e-6 noise or in units 1e6 times P2's. Forming X'X squares the
        # condition number, so a solve of the normal equations drops directions lstsq on X keeps.
        sc = scenario("P1", seed=5, window=2000, max_lag=6)
        roster = experiments.materialize_series(sc)
        p2 = roster[1]
        repeat = p2.values + 1e-6 * np.random.default_rng(0).normal(size=p2.values.size) if copy == "noisy" else 1e6 * p2.values
        roster.append(AgentSeries("P6", repeat, start_time=p2.start_time))
        monkeypatch.setattr(experiments, "materialize_series", lambda scenario: roster)
        rows = run_method_comparison(sc)
        market = experiments._prepare(sc)
        X, y = market.design_all.values, market.target
        assert [(row["agent"], row["lag"]) for row in rows] == list(market.design_all.column_map[1:])

        def loss(features):  # the MSE at the best intercept for these feature coefficients
            residual = y - X[:, 1:] @ features
            residual -= residual.mean()
            return float(residual @ residual) / len(y)

        reference = np.linalg.lstsq(X, y, rcond=None)[0]
        assert loss(np.array([row["ols_all"] for row in rows])) <= loss(reference[1:]) * (1 + 1e-12)

    def test_independent_central_stays_self_reliant(self):
        rows = {(r["agent"], r["lag"]): r for r in run_method_comparison(scenario("P2", seed=0))}
        for (agent, lag), row in rows.items():
            if agent != "P2":
                assert abs(row["lasso"]) < 0.02
        own = rows[("P2", 1)]
        assert abs(own["lasso"] - own["true"]) < 0.2
        assert own["true"] == SyntheticSpec().ar_coefficients[0]

    def test_ols_self_only_on_central_columns(self):
        for row in run_method_comparison(scenario("P1", seed=1)):
            if row["agent"] == "P1":
                assert row["ols_self"] is not None
            else:
                assert row["ols_self"] is None

    def test_ols_self_is_the_buyers_own_lag_fit_on_synthetic_data(self):
        rows = run_method_comparison(scenario("P1", seed=4))
        buyer = synthetic_market_series(SyntheticSpec(seed=4), history=3, window=240)[0]
        assert buyer.agent_id == "P1"
        self.assert_ols_self_matches(rows, "P1", own_lag_fit(buyer.values, 3, 240, 3))

    def test_ols_self_is_the_buyers_own_lag_fit_on_csv_data(self, tmp_path):
        # The buyer is the file's middle zone, so its design block is not
        # where the file puts its column.
        config, values = csv_scenario(tmp_path)
        self.assert_ols_self_matches(run_method_comparison(config), "B", own_lag_fit(values[:, 1], 2, 60, 2))

    @staticmethod
    def assert_ols_self_matches(rows, buyer, expected):
        own = {row["lag"]: row["ols_self"] for row in rows if row["agent"] == buyer}
        assert own.keys() == expected.keys()
        for lag, value in own.items():
            assert value == pytest.approx(expected[lag], rel=1e-9, abs=1e-12)
        assert all(row["ols_self"] is None for row in rows if row["agent"] != buyer)

    def test_true_column_matches_generator(self):
        spec = SyntheticSpec(seed=0)
        rows = {(r["agent"], r["lag"]): r["true"] for r in run_method_comparison(scenario("P1", seed=0))}
        assert rows[("P1", 1)] == spec.dependent_phi
        for agent, cross in zip(spec.agent_ids[1:], spec.cross_coefficients):
            assert rows[(agent, 1)] == cross
            assert rows[(agent, 2)] == 0.0

    def test_noise_free_linear_system_recovers_exactly(self):
        # A target that is exactly linear in its own lag: OLS is exact.
        phi = 0.7
        values = np.empty(60)
        values[0] = 1.0
        for t in range(1, 60):
            values[t] = phi * values[t - 1]
        from regmarket import AgentSeries, build_lag_matrix, ols_fit

        s = AgentSeries(agent_id="A", values=values, start_time=1)
        design = build_lag_matrix([s], LagSpec(max_lag=1, window_length=59))
        beta = ols_fit(design, s.window(59))
        assert abs(beta[1] - phi) < 1e-6
        assert abs(beta[0]) < 1e-6


class TestUSweep:
    def test_shape_and_endpoints(self):
        grid = (0.0, 0.02, 0.1, 0.5, 2.0, 5.0)
        rows = run_u_sweep(scenario("P1", seed=0, u_grid=grid))
        assert len(rows) == len(grid)
        by_point = {value: outcome for _, value, outcome in rows}
        features = by_point[0.0].market.seller_features
        assert all(by_point[0.0].payments == 0.0)
        assert all(by_point[5.0].payments == 0.0)
        for agent in ("P2", "P3", "P4", "P5"):
            interior = [
                sum(amount for (a, _), amount in zip(features, by_point[u].payments) if a == agent)
                for u in grid[1:-1]
            ]
            assert max(interior) > 0.0

    def test_rows_per_point_agent_lag(self):
        for _, _, outcome in run_u_sweep(scenario("P1", seed=0, u_grid=(0.0, 0.1))):
            assert len(outcome.payments) == 4 * 3

    def test_missing_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            run_u_sweep(scenario("P1"))

    def test_points_share_one_design(self, monkeypatch):
        prepared = capture_prepared(monkeypatch)
        rows = run_u_sweep(scenario("P1", seed=0, u_grid=(0.0, 0.05, 0.5)))
        (market,) = prepared
        assert all(outcome.market is market for _, _, outcome in rows)


class TestTSweep:
    def test_per_step_payment_roughly_halves_when_T_doubles(self):
        _, per_step_rows = run_T_sweep(scenario("P1", seed=0, t_grid=(240, 480)))
        per_step = {row["T"]: row["payment_per_step"] for row in per_step_rows if row["agent"] == "P1"}
        ratio = per_step[480] / per_step[240]
        assert 0.25 < ratio < 0.8

    def test_single_point_equals_direct_clearing(self):
        grid = (60, 120, 240)
        sc = scenario("P1", seed=0, window=240, t_grid=grid, u_grid=(0.1,))
        rows, _ = run_T_sweep(sc)
        assert [value for _, value, _ in rows] == list(grid)
        roster = synthetic_market_series(sc.data, history=3, window=240)
        schedule = ReservationSchedule(default=0.1)
        for _, T, outcome in rows:
            config = MarketConfig("P1", ("P2", "P3", "P4", "P5"), LagSpec(3, T))
            direct = clear_market(config, roster, schedule)
            assert outcome.market.config == config
            assert np.array_equal(outcome.market.baseline_start, direct.market.baseline_start)
            assert np.array_equal(outcome.market_beta, direct.market_beta)
            assert outcome.market.baseline_mse == direct.market.baseline_mse
            assert outcome.market_mse == direct.market_mse
            assert np.array_equal(outcome.payments, direct.payments) and np.array_equal(outcome.prices, direct.prices)
            assert outcome.buyer_net_gain == direct.buyer_net_gain
        swept = run_u_sweep(sc)[0][2]
        assert np.array_equal(rows[-1][2].market_beta, swept.market_beta)
        assert rows[-1][2].total_payments == swept.total_payments

    def test_points_share_one_design(self):
        rows, _ = run_T_sweep(scenario("P1", seed=0, t_grid=(60, 120, 240)))
        *shorter, (_, _, longest) = rows
        for _, T, outcome in shorter:
            market, longest_market = outcome.market, longest.market
            assert market.design_all.n_rows == market.target.shape[0] == T
            assert np.shares_memory(market.design_all.history, longest_market.design_all.history)
            # The buyer's hours lead the design's.
            assert np.shares_memory(market.design_all.history[1], longest_market.design_all.history[1])
            assert np.shares_memory(market.target, longest_market.target)

    def test_each_point_clears_its_window(self, monkeypatch):
        prepared = capture_prepared(monkeypatch)
        rows, _ = run_T_sweep(scenario("P1", seed=0, t_grid=(60, 120, 240)))
        (market,) = prepared
        assert rows[-1][2].market is market
        for _, T, outcome in rows:
            window = market.window(T)
            assert outcome.market.config == window.config
            assert outcome.market.config.lag_spec.window_length == T
            assert np.shares_memory(outcome.market.design_all.history, market.design_all.history)
            assert np.shares_memory(outcome.market.target, market.target)
            assert np.array_equal(outcome.market.baseline_start, window.baseline_start)

    def test_missing_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="^T sweep needs a non-empty t_grid$"):
            run_T_sweep(scenario("P1"))

    def test_per_step_rows_cover_each_agent_and_buyer(self):
        _, per_step_rows = run_T_sweep(scenario("P1", seed=0, t_grid=(120, 240)))
        agents = {(row["T"], row["agent"]) for row in per_step_rows}
        for T in (120, 240):
            for agent in ("P1", "P2", "P3", "P4", "P5"):
                assert (T, agent) in agents


class TestTwoAgentGrid:
    def test_missing_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="^two-agent grid needs both agents and both grids$"):
            run_two_agent_grid(scenario("P1"))

    def test_one_by_one_grid_equals_single_clearing(self):
        sc = scenario(
            "P1", seed=0, u_grid=(0.1,), grid2=TwoAgentGrid("P2", "P3", (0.1,), (0.1,))
        )
        rows, _ = run_two_agent_grid(sc)
        assert len(rows) == 1
        outcome = rows[0][2]
        # others_u defaults to 0.1 as well, so this is the uniform clearing.
        swept = run_u_sweep(sc)[0][2]
        roster = synthetic_market_series(sc.data, history=3, window=240)
        config = MarketConfig("P1", ("P2", "P3", "P4", "P5"), LagSpec(3, 240))
        direct = clear_market(config, roster, ReservationSchedule(default=0.1))
        for other in (swept, direct):
            assert np.array_equal(outcome.market_beta, other.market_beta)
            assert outcome.total_payments == other.total_payments

    def test_diagonal_matches_uniform_sweep(self):
        sc = scenario(
            "P1",
            seed=0,
            u_grid=(0.05,),
            grid2=TwoAgentGrid("P2", "P3", (0.05, 0.2), (0.05, 0.2), others_u=0.05),
        )
        rows, _ = run_two_agent_grid(sc)

        def pay(outcome, agent):
            return sum(amount for (a, _), amount in zip(outcome.market.seller_features, outcome.payments) if a == agent)

        cell = {value: (pay(outcome, "P2"), pay(outcome, "P3")) for _, value, outcome in rows}
        outcome = run_u_sweep(sc)[0][2]
        assert cell["0.05;0.05"][0] == pytest.approx(pay(outcome, "P2"), rel=1e-9)
        assert cell["0.05;0.05"][1] == pytest.approx(pay(outcome, "P3"), rel=1e-9)

    def test_points_share_one_market(self, monkeypatch):
        prepared = capture_prepared(monkeypatch)
        grid = (0.05, 0.2)
        rows, _ = run_two_agent_grid(scenario("P1", seed=0, grid2=TwoAgentGrid("P2", "P3", grid, grid)))
        (market,) = prepared
        assert len(rows) == 4
        assert all(outcome.market is market for _, _, outcome in rows)

    def test_monotonicity_statistic_reported(self):
        grid = (0.05, 0.1, 0.2)
        rows, summary = run_two_agent_grid(scenario("P1", seed=0, grid2=TwoAgentGrid("P2", "P3", grid, grid)))
        assert len(rows) == 9
        assert 0.0 <= summary["a_payment_nonincreasing_in_b_frac"] <= 1.0
        assert 0.0 <= summary["b_payment_nonincreasing_in_a_frac"] <= 1.0

    def test_monotonicity_statistic_independent_of_units(self, tmp_path):
        # Scaling the data by s scales every MSE and payment by s^2 when the
        # reservations scale by s^2 too, so the fractions must not change.
        roster = synthetic_market_series(SyntheticSpec(seed=2), history=3, window=240)
        values = np.column_stack([s.values for s in roster])
        grid = (0.05, 0.1, 0.2)

        def fractions(scale):
            lines = ["timestamp," + ",".join(s.agent_id for s in roster)]
            lines += [f"{t},{','.join(map(repr, row))}" for t, row in enumerate((values * scale).tolist())]
            path = tmp_path / f"zones-{scale!r}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            u = lambda v: v * scale**2
            config = ScenarioConfig(
                scenario_id="units",
                market=MarketConfig("P1", None, LagSpec(max_lag=3, window_length=240)),
                data=CsvSource(str(path)),
                grid2=TwoAgentGrid("P2", "P3", tuple(map(u, grid)), tuple(map(u, grid)), others_u=u(0.1)),
            )
            return run_two_agent_grid(config)[1]

        unscaled = fractions(1.0)
        assert unscaled["b_payment_nonincreasing_in_a_frac"] < 1.0  # the statistic has something to show
        assert fractions(1e-6) == unscaled

    def test_non_support_agent_rejected(self):
        sc = scenario("P1", grid2=TwoAgentGrid("P1", "P2", (0.1,), (0.1,)))
        with pytest.raises(InvalidInputError):
            run_two_agent_grid(sc)

    @pytest.mark.parametrize("u_grid_a", [(0.2, 0.1, 0.05), (0.1, 0.1, 0.1)])
    def test_unordered_grid_rejected(self, u_grid_a):
        # A grid reaches the sweep only through the scenario, which checks it.
        grid = TwoAgentGrid("P2", "P3", (0.05, 0.1, 0.2), (0.05, 0.1, 0.2))
        with pytest.raises(InvalidInputError, match="u_grid_a must be strictly increasing"):
            dataclasses.replace(grid, u_grid_a=u_grid_a)


class TestOmittedSupportAgents:
    """A scenario without support_agents clears as one listing every other agent in data order."""

    @staticmethod
    def assert_same_clearings(scenario, agent_ids):
        central = scenario.market.central_agent
        listed = dataclasses.replace(
            scenario,
            market=MarketConfig(central, tuple(a for a in agent_ids if a != central), scenario.market.lag_spec),
        )
        pairs = zip(run_u_sweep(scenario), run_u_sweep(listed), strict=True)
        for (_, _, omitted), (_, _, explicit) in pairs:
            assert omitted.market.config == explicit.market.config
            assert np.array_equal(omitted.market_beta, explicit.market_beta)
            assert omitted.market_mse == explicit.market_mse
            assert np.array_equal(omitted.payments, explicit.payments) and np.array_equal(omitted.prices, explicit.prices)
            assert omitted.buyer_net_gain == explicit.buyer_net_gain

    @settings(max_examples=15, deadline=None)
    @given(
        phis=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=5),
        buyer=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_synthetic_rosters(self, phis, buyer, seed):
        n = len(phis)
        spec = SyntheticSpec(
            n_independent=n, ar_coefficients=phis, noise_std=(1.0,) * n, cross_coefficients=(0.3,) * n, seed=seed
        )
        central = spec.agent_ids[min(buyer, n)]
        sc = ScenarioConfig("omitted", MarketConfig(central, None, LagSpec(2, 60)), data=spec, u_grid=(0.0, 0.05))
        self.assert_same_clearings(sc, spec.agent_ids)

    @settings(max_examples=10, deadline=None)
    @given(n_zones=st.integers(3, 6), data=st.data(), seed=st.integers(0, 2**16))
    def test_csv_with_a_middle_buyer(self, n_zones, data, seed):
        zones = [f"Z{k:02d}" for k in range(1, n_zones + 1)]
        central = zones[data.draw(st.integers(1, n_zones - 2), label="buyer column")]
        values = np.random.default_rng(seed).normal(size=(70, n_zones))
        lines = ["timestamp," + ",".join(zones)] + [f"{t},{','.join(map(repr, row))}" for t, row in enumerate(values.tolist())]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "zones.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            market = MarketConfig(central, None, LagSpec(2, 60))
            self.assert_same_clearings(ScenarioConfig("omitted", market, data=CsvSource(str(path)), u_grid=(0.0, 0.05)), zones)


def bench_scenario(name, seed, directory):
    """The benchmark's ``paper-u`` or ``small-many`` scenario at ``seed``, loaded from a file."""
    spec = importlib.util.spec_from_file_location("bench_inputs", Path(__file__).parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    make = inputs.paper_u_scenario if name == "paper-u" else inputs.small_many_scenario
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps(make(seed)), encoding="utf-8")
    return load_scenario(path)


class TestWarmStartedSweeps:
    """Each point of a reservation sweep starts from the previous point's fit, to the same optimum."""

    @pytest.mark.parametrize(
        "run", [run_u_sweep, pytest.param(lambda sc: run_two_agent_grid(sc)[0], id="run_two_agent_grid")]
    )
    @pytest.mark.parametrize(("name", "seed"), [("small-many", 0), ("paper-u", 0)])
    def test_chained_points_match_cold_clearings(self, monkeypatch, tmp_path, run, name, seed):
        fit, fits = market_module.weighted_lasso_fit, []

        def recording(X, y, penalties, settings=None, start=None, *, normal=None):
            given = None if start is None else start.copy()
            beta = fit(X, y, penalties, settings, start, normal=normal)
            fits.append((start, given, beta))
            return beta

        sc = bench_scenario(name, seed, tmp_path)
        monkeypatch.setattr(market_module, "weighted_lasso_fit", recording)
        rows = run(sc)
        monkeypatch.undo()

        assert len(fits) == len(rows) > 1
        assert fits[0][0] is rows[0][2].market.baseline_start
        for (_, _, previous), (start, given, _) in zip(fits, fits[1:]):
            assert start is previous and start.tobytes() == given.tobytes()
        tolerance = SolverSettings().tolerance
        for k, (_, _, outcome) in enumerate(rows):
            market = outcome.market
            cold = market.clear(outcome.prices)
            if k == 0:
                assert outcome.market_beta.tobytes() == cold.market_beta.tobytes()
            A, y = market.design_all.values, market.target
            penalties = penalties_from_reservations(market, outcome.prices)
            assert np.array_equal(penalties, penalties_from_reservations(market, cold.prices))
            warm_objective = penalized_objective(A, y, penalties, outcome.market_beta)
            assert warm_objective == pytest.approx(penalized_objective(A, y, penalties, cold.market_beta), rel=1e-12)
            bound = column_kkt_bound(A, y, tolerance)
            assert column_kkt_residual(A, y, penalties, outcome.market_beta) <= bound
            assert column_kkt_residual(A, y, penalties, cold.market_beta) <= bound

    def test_training_sweep_points_start_from_their_baselines(self, monkeypatch):
        # Each window is its own market: it starts at (b_self, 0), its own
        # buyer-only least squares fit, with every seller coefficient at 0.
        fits, fit = [], market_module.weighted_lasso_fit

        def recording(X, y, penalties, settings=None, start=None, *, normal=None):
            fits.append((X.values, y, start))
            return fit(X, y, penalties, settings, start, normal=normal)

        monkeypatch.setattr(market_module, "weighted_lasso_fit", recording)
        run_T_sweep(scenario("P1", seed=0, t_grid=(60, 120, 240)))
        assert [len(y) for _, y, _ in fits] == [60, 120, 240]
        own = 1 + 3  # the intercept and P1's three lags lead the design
        for A, y, start in fits:
            assert not start.flags.writeable
            assert not start[own:].any()
            assert start[:own].tobytes() == np.linalg.lstsq(A[:, :own], y, rcond=None)[0].tobytes()


class TestBuyingNothing:
    """A clearing that buys nothing returns its baseline start's loss to the bit, so the buyer nets exactly 0."""

    @pytest.mark.parametrize(("name", "n_seeds"), [("paper-u", 6), ("small-many", 8)])
    def test_cold_and_warm_clearings_that_buy_nothing_net_zero(self, tmp_path, name, n_seeds):
        # Cold: one clearing at u = 1e6. Warm: u = 1e3 and 1e6 after 0.0 and
        # 0.05 on one sweep, each starting from the point before it.
        for seed in range(n_seeds):
            sc = bench_scenario(name, seed, tmp_path)
            market = experiments._prepare(sc)
            cold = market.clear(market.prices(ReservationSchedule(default=1e6)))
            warm = run_u_sweep(dataclasses.replace(sc, u_grid=(0.0, 0.05, 1e3, 1e6)))[2:]
            for outcome in (cold, *(outcome for _, _, outcome in warm)):
                assert not outcome.market_beta[outcome.market.seller_index].any()
                assert outcome.total_payments == 0.0
                assert outcome.market_mse.hex() == outcome.market.baseline_mse.hex()
                assert outcome.buyer_net_gain.hex() == (0.0).hex()


class TestMarketMoment:
    """A prepared market forms its normal equations once; a solve given them equals one that forms its own, to the bit."""

    @pytest.mark.parametrize(("name", "seed"), [("small-many", 0), ("paper-u", 0)])
    def test_solve_given_the_moment_equals_one_without(self, tmp_path, name, seed):
        sc = bench_scenario(name, seed, tmp_path)
        prepared = experiments._prepare(sc)
        config = prepared.config
        for market in (prepared, prepared.window(config.lag_spec.window_length // 2)):
            design, target = market.design_all, market.target
            assert not market.normal.moment.flags.writeable
            start = market.baseline_start
            for u in sc.u_grid:
                outcome = market.clear(market.prices(ReservationSchedule(default=u)), start)
                penalties = penalties_from_reservations(market, outcome.prices)
                computed = weighted_lasso_fit(design, target, penalties, config.solver, start)
                given = weighted_lasso_fit(design, target, penalties, config.solver, start, normal=market.normal)
                assert outcome.market_beta.tobytes() == given.tobytes() == computed.tobytes()
                start = outcome.market_beta

    @pytest.mark.parametrize("name", ["small-many", "paper-u"])
    def test_a_record_of_another_window_is_rejected_naming_normal(self, tmp_path, name):
        full = experiments._prepare(bench_scenario(name, 0, tmp_path))
        half = full.window(full.config.lag_spec.window_length // 2)
        for market, record in ((full, half.normal), (half, full.normal)):
            penalties = penalties_from_reservations(market, market.prices(ReservationSchedule(default=0.01)))
            with pytest.raises(InvalidInputError, match="^normal") as err:
                weighted_lasso_fit(market.design_all, market.target, penalties, normal=record)
            assert err.value.field == "normal"
        # The same arrays in a copy of the target are not the record's target either.
        penalties = penalties_from_reservations(full, full.prices(ReservationSchedule(default=0.01)))
        with pytest.raises(InvalidInputError, match="^normal"):
            weighted_lasso_fit(full.design_all, full.target.copy(), penalties, normal=full.normal)

    @pytest.mark.parametrize("name", ["small-many", "paper-u"])
    def test_record_matches_long_double_products(self, tmp_path, name):
        full = experiments._prepare(bench_scenario(name, 0, tmp_path))
        for market in (full, full.window(full.config.lag_spec.window_length // 2)):
            normal = market.normal
            X = market.design_all.values.astype(np.longdouble)
            y = market.target.astype(np.longdouble)
            gram = np.zeros((X.shape[1], X.shape[1]), dtype=np.longdouble)
            for row in X:  # a row at a time, so no BLAS product enters
                gram += np.multiply.outer(row, row)
            moment = (X * y[:, None]).sum(axis=0)
            square = (y * y).sum()
            # Each sum of T products carries rounding of order T eps of its terms' magnitudes.
            bound = 4 * X.shape[0] * np.finfo(float).eps
            scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
            assert np.all(np.abs(normal.gram - gram) <= bound * scale)
            assert np.all(np.abs(normal.moment - moment) <= bound * np.sqrt(np.diag(gram) * square))
            assert abs(normal.target_square - square) <= bound * square
            assert normal.design is market.design_all and normal.target is market.target


class TestNoDesignBuilt:
    """The clearing runners form every market's normal equations from its lag history and never build its T x P values."""

    @pytest.mark.parametrize(("name", "seed"), [("small-many", 0), ("paper-u", 3)])
    def test_clearing_runners_never_build_a_markets_values(self, tmp_path, monkeypatch, name, seed):
        built, build = [], market_module.build_lag_matrix

        def recording(series_list, spec):
            built.append(build(series_list, spec))
            return built[-1]

        monkeypatch.setattr(market_module, "build_lag_matrix", recording)
        sc = bench_scenario(name, seed, tmp_path)
        window = sc.market.lag_spec.window_length
        sc = dataclasses.replace(sc, t_grid=sc.t_grid or (window // 4, window // 2, window))
        outcomes = [run_clearing(sc)]
        for rows in (run_u_sweep(sc), run_T_sweep(sc)[0], run_two_agent_grid(sc)[0]):
            outcomes += [outcome for _, _, outcome in rows]
        # Per prepared market, the buyer's own lag block for its baseline, then the roster's one design.
        assert len(built) == 8
        max_lag = sc.market.lag_spec.max_lag
        assert [block.n_cols for block in built[::2]] == [1 + max_lag] * 4
        designs = built[1::2] + [outcome.market.design_all for outcome in outcomes]
        assert len({id(design) for design in designs}) > 4  # sweep-t's windows are designs of their own
        assert not any("values" in vars(design) for design in designs)
        # A reader still gets the matrix, built once.
        design = outcomes[0].market.design_all
        assert design.values is design.values and design.values.shape == (window, design.n_cols)


class TestDeterminism:
    def test_reports_are_deterministic(self):
        a = run_u_sweep(scenario("P1", seed=7, u_grid=(0.0, 0.1, 0.3)))
        b = run_u_sweep(scenario("P1", seed=7, u_grid=(0.0, 0.1, 0.3)))
        for (_, ua, oa), (_, ub, ob) in zip(a, b):
            assert ua == ub
            assert np.array_equal(oa.market_beta, ob.market_beta)
            assert oa.total_payments == ob.total_payments
