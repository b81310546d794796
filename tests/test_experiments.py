import dataclasses

import numpy as np
import pytest

from regmarket import (
    InvalidInputError,
    LagSpec,
    MarketConfig,
    ReservationSchedule,
    SyntheticSpec,
    clear_market,
    run_T_sweep,
    run_method_comparison,
    run_two_agent_grid,
    run_u_sweep,
    synthetic_market_series,
)
from regmarket.data_io import ScenarioConfig, TwoAgentGrid


def scenario(central="P1", seed=0, window=240, max_lag=3, **kwargs):
    return ScenarioConfig(
        scenario_id="test",
        central_agent=central,
        lag_spec=LagSpec(max_lag=max_lag, window_length=window),
        synthetic=SyntheticSpec(seed=seed),
        **kwargs,
    )


def own_lag_fit(values, start: int, window: int, max_lag: int) -> dict:
    """Least squares of ``values[start:start + window]`` on an intercept and its own lags, by lag."""
    hours = np.arange(start, start + window)
    X = np.column_stack([np.ones(window)] + [values[hours - lag] for lag in range(1, max_lag + 1)])
    beta = np.linalg.lstsq(X, values[hours], rcond=None)[0]
    return {lag: beta[lag] for lag in range(1, max_lag + 1)}


class TestMethodComparison:
    def test_correlated_central_recovers_structure(self):
        report = run_method_comparison(scenario("P1", seed=0))
        rows = {(r["agent"], r["lag"]): r for r in report.coefficient_rows}
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

    def test_independent_central_stays_self_reliant(self):
        report = run_method_comparison(scenario("P2", seed=0))
        rows = {(r["agent"], r["lag"]): r for r in report.coefficient_rows}
        for (agent, lag), row in rows.items():
            if agent != "P2":
                assert abs(row["lasso"]) < 0.02
        own = rows[("P2", 1)]
        assert abs(own["lasso"] - own["true"]) < 0.2
        assert own["true"] == SyntheticSpec().ar_coefficients[0]

    def test_ols_self_only_on_central_columns(self):
        report = run_method_comparison(scenario("P1", seed=1))
        for row in report.coefficient_rows:
            if row["agent"] == "P1":
                assert row["ols_self"] is not None
            else:
                assert row["ols_self"] is None

    def test_ols_self_is_the_buyers_own_lag_fit_on_synthetic_data(self):
        report = run_method_comparison(scenario("P1", seed=4))
        buyer = synthetic_market_series(SyntheticSpec(seed=4), history=3, window=240)[0]
        assert buyer.agent_id == "P1"
        self.assert_ols_self_matches(report, "P1", own_lag_fit(buyer.values, 3, 240, 3))

    def test_ols_self_is_the_buyers_own_lag_fit_on_csv_data(self, tmp_path):
        # The buyer is the file's middle zone, so its design block is not
        # where the file puts its column.
        rng = np.random.default_rng(11)
        values = rng.normal(size=(70, 3)).cumsum(axis=0) * 0.1
        lines = ["timestamp,A,B,C"] + [f"{t},{','.join(map(repr, row))}" for t, row in enumerate(values.tolist())]
        path = tmp_path / "zones.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = ScenarioConfig(
            scenario_id="csv", central_agent="B", lag_spec=LagSpec(max_lag=2, window_length=60), csv_path=str(path)
        )
        report = run_method_comparison(config)
        self.assert_ols_self_matches(report, "B", own_lag_fit(values[:, 1], 2, 60, 2))

    @staticmethod
    def assert_ols_self_matches(report, buyer, expected):
        rows = report.coefficient_rows
        own = {row["lag"]: row["ols_self"] for row in rows if row["agent"] == buyer}
        assert own.keys() == expected.keys()
        for lag, value in own.items():
            assert value == pytest.approx(expected[lag], rel=1e-9, abs=1e-12)
        assert all(row["ols_self"] is None for row in rows if row["agent"] != buyer)

    def test_true_column_matches_generator(self):
        spec = SyntheticSpec(seed=0)
        report = run_method_comparison(scenario("P1", seed=0))
        rows = {(r["agent"], r["lag"]): r["true"] for r in report.coefficient_rows}
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
        report = run_u_sweep(scenario("P1", seed=0, u_grid=grid))
        assert len(report.sweep_rows) == len(grid)
        by_point = {value: outcome for _, value, outcome in report.sweep_rows}
        assert all(r.amount == 0.0 for r in by_point[0.0].payments)
        assert all(r.amount == 0.0 for r in by_point[5.0].payments)
        for agent in ("P2", "P3", "P4", "P5"):
            interior = [
                sum(r.amount for r in by_point[u].payments if r.agent_id == agent)
                for u in grid[1:-1]
            ]
            assert max(interior) > 0.0

    def test_rows_per_point_agent_lag(self):
        report = run_u_sweep(scenario("P1", seed=0, u_grid=(0.0, 0.1)))
        for _, _, outcome in report.sweep_rows:
            assert len(outcome.payments) == 4 * 3

    def test_missing_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            run_u_sweep(scenario("P1"))

    def test_points_share_one_design(self):
        report = run_u_sweep(scenario("P1", seed=0, u_grid=(0.0, 0.05, 0.5)))
        designs = {id(outcome.design_all) for _, _, outcome in report.sweep_rows}
        assert len(designs) == 1


class TestTSweep:
    def test_per_step_payment_roughly_halves_when_T_doubles(self):
        report = run_T_sweep(scenario("P1", seed=0, t_grid=(240, 480)))
        per_step = {
            row["T"]: row["payment_per_step"]
            for row in report.derived_rows
            if row["agent"] == "P1"
        }
        ratio = per_step[480] / per_step[240]
        assert 0.25 < ratio < 0.8

    def test_single_point_equals_direct_clearing(self):
        grid = (60, 120, 240)
        sc = scenario("P1", seed=0, window=240, t_grid=grid, u_grid=(0.1,))
        report = run_T_sweep(sc)
        assert [value for _, value, _ in report.sweep_rows] == list(grid)
        roster = synthetic_market_series(sc.synthetic, history=3, window=240)
        schedule = ReservationSchedule.uniform(("P2", "P3", "P4", "P5"), 3, 0.1)
        for _, T, outcome in report.sweep_rows:
            config = MarketConfig("P1", ("P2", "P3", "P4", "P5"), LagSpec(3, T))
            direct = clear_market(config, roster, schedule)
            assert outcome.config == config
            assert np.array_equal(outcome.baseline_beta, direct.baseline_beta)
            assert np.array_equal(outcome.market_beta, direct.market_beta)
            assert outcome.baseline_mse == direct.baseline_mse
            assert outcome.market_mse == direct.market_mse
            assert outcome.payments == direct.payments
            assert outcome.buyer_net_gain == direct.buyer_net_gain
        swept = run_u_sweep(sc).sweep_rows[0][2]
        assert np.array_equal(report.sweep_rows[-1][2].market_beta, swept.market_beta)
        assert report.sweep_rows[-1][2].total_payments == swept.total_payments

    def test_points_share_one_design(self):
        report = run_T_sweep(scenario("P1", seed=0, t_grid=(60, 120, 240)))
        *shorter, (_, _, longest) = report.sweep_rows
        for _, T, outcome in shorter:
            assert outcome.design_all.n_rows == outcome.target.shape[0] == T
            assert np.shares_memory(outcome.design_all.values, longest.design_all.values)
            assert np.shares_memory(outcome.design_self.values, longest.design_self.values)
            assert np.shares_memory(outcome.target, longest.target)

    def test_derived_rows_cover_each_agent_and_buyer(self):
        report = run_T_sweep(scenario("P1", seed=0, t_grid=(120, 240)))
        agents = {(row["T"], row["agent"]) for row in report.derived_rows}
        for T in (120, 240):
            for agent in ("P1", "P2", "P3", "P4", "P5"):
                assert (T, agent) in agents


class TestTwoAgentGrid:
    def test_one_by_one_grid_equals_single_clearing(self):
        sc = scenario(
            "P1", seed=0, u_grid=(0.1,), grid2=TwoAgentGrid("P2", "P3", (0.1,), (0.1,))
        )
        report = run_two_agent_grid(sc)
        assert len(report.sweep_rows) == 1
        outcome = report.sweep_rows[0][2]
        # others_u defaults to 0.1 as well, so this is the uniform clearing.
        swept = run_u_sweep(sc).sweep_rows[0][2]
        roster = synthetic_market_series(sc.synthetic, history=3, window=240)
        config = MarketConfig("P1", ("P2", "P3", "P4", "P5"), LagSpec(3, 240))
        direct = clear_market(
            config, roster, ReservationSchedule.uniform(config.support_agents, 3, 0.1)
        )
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
        report = run_two_agent_grid(sc)
        cell = {
            (row["u_a"], row["u_b"]): (row["payment_a"], row["payment_b"])
            for row in report.derived_rows
        }
        uniform = run_u_sweep(sc)
        outcome = uniform.sweep_rows[0][2]
        pay = lambda agent: sum(r.amount for r in outcome.payments if r.agent_id == agent)
        assert cell[(0.05, 0.05)][0] == pytest.approx(pay("P2"), rel=1e-9)
        assert cell[(0.05, 0.05)][1] == pytest.approx(pay("P3"), rel=1e-9)

    def test_monotonicity_statistic_reported(self):
        grid = (0.05, 0.1, 0.2)
        report = run_two_agent_grid(
            scenario("P1", seed=0, grid2=TwoAgentGrid("P2", "P3", grid, grid))
        )
        assert len(report.sweep_rows) == 9
        assert 0.0 <= report.summary["a_payment_nonincreasing_in_b_frac"] <= 1.0
        assert 0.0 <= report.summary["b_payment_nonincreasing_in_a_frac"] <= 1.0

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
                central_agent="P1",
                lag_spec=LagSpec(max_lag=3, window_length=240),
                csv_path=str(path),
                grid2=TwoAgentGrid("P2", "P3", tuple(map(u, grid)), tuple(map(u, grid)), others_u=u(0.1)),
            )
            return run_two_agent_grid(config).summary

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


class TestDeterminism:
    def test_reports_are_deterministic(self):
        a = run_u_sweep(scenario("P1", seed=7, u_grid=(0.0, 0.1, 0.3)))
        b = run_u_sweep(scenario("P1", seed=7, u_grid=(0.0, 0.1, 0.3)))
        for (_, ua, oa), (_, ub, ob) in zip(a.sweep_rows, b.sweep_rows):
            assert ua == ub
            assert np.array_equal(oa.market_beta, ob.market_beta)
            assert oa.total_payments == ob.total_payments
