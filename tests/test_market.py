import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import (
    ConvergenceError,
    DesignMatrix,
    InvalidInputError,
    LagSpec,
    MarketConfig,
    PreparedMarket,
    ReservationSchedule,
    SolverSettings,
    SyntheticSpec,
    ViabilityError,
    build_lag_matrix,
    clear_market,
    penalties_from_reservations,
    synthetic_market_series,
    verify_buyer_viability,
)

LAG = LagSpec(max_lag=3, window_length=240)
SUPPORTS = ("P2", "P3", "P4", "P5")


def default_market(seed=0, **spec_kwargs):
    spec = SyntheticSpec(seed=seed, **spec_kwargs)
    roster = synthetic_market_series(spec, history=LAG.max_lag, window=LAG.window_length)
    config = MarketConfig("P1", SUPPORTS, LAG)
    return config, roster


class TestReservationSchedule:
    def test_uniform_covers_all_lags(self):
        schedule = ReservationSchedule.uniform(("A", "B"), 2, 0.3)
        assert schedule.get("A", 1) == 0.3
        assert schedule.get("B", 2) == 0.3
        assert schedule.get("C", 1) == 0.0  # absent means free

    def test_negative_reservation_rejected(self):
        with pytest.raises(InvalidInputError):
            ReservationSchedule({("A", 1): -0.1})

    def test_bad_lag_rejected(self):
        with pytest.raises(InvalidInputError):
            ReservationSchedule({("A", 0): 0.1})

    def test_replacing_overrides_one_agent(self):
        schedule = ReservationSchedule.uniform(("A", "B"), 2, 0.3)
        updated = schedule.replacing("A", 2, 0.7)
        assert updated.get("A", 1) == 0.7
        assert updated.get("B", 1) == 0.3
        assert schedule.get("A", 1) == 0.3  # original untouched


class TestMarketConfig:
    def test_central_cannot_support(self):
        with pytest.raises(InvalidInputError):
            MarketConfig("P1", ("P1", "P2"), LAG)


class TestPenaltiesFromReservations:
    def setup_method(self):
        self.config, self.roster = default_market(seed=0)
        self.design = build_lag_matrix(self.roster, LAG)

    def test_zero_reservations_give_zero_penalties(self):
        schedule = ReservationSchedule.uniform(SUPPORTS, 3, 0.0)
        penalties = penalties_from_reservations(self.config, schedule, self.design)
        assert np.all(penalties == 0.0)

    def test_uniform_reservation_arithmetic(self):
        schedule = ReservationSchedule.uniform(SUPPORTS, 3, 0.1)
        penalties = penalties_from_reservations(self.config, schedule, self.design)
        assert penalties[0] == 0.0
        for lag in (1, 2, 3):
            assert penalties[self.design.column_of("P1", lag)] == 0.0
        for agent in SUPPORTS:
            for lag in (1, 2, 3):
                value = penalties[self.design.column_of(agent, lag)]
                assert value == (240 / 2) * 0.1
                assert value == pytest.approx(12.0)

    def test_free_agent_is_unpenalized(self):
        schedule = ReservationSchedule.uniform(("P3", "P4", "P5"), 3, 0.2)
        penalties = penalties_from_reservations(self.config, schedule, self.design)
        for lag in (1, 2, 3):
            assert penalties[self.design.column_of("P2", lag)] == 0.0
            assert penalties[self.design.column_of("P3", lag)] == 24.0

    def test_reservation_without_design_column_rejected(self):
        schedule = ReservationSchedule({("P9", 1): 0.1})
        with pytest.raises(InvalidInputError, match="P9"):
            penalties_from_reservations(self.config, schedule, self.design)
        schedule = ReservationSchedule({("P2", 4): 0.1})
        with pytest.raises(InvalidInputError, match="lag 4"):
            penalties_from_reservations(self.config, schedule, self.design)

    def test_central_agent_cannot_sell(self):
        schedule = ReservationSchedule({("P1", 1): 0.1})
        with pytest.raises(InvalidInputError, match="central"):
            penalties_from_reservations(self.config, schedule, self.design)
        # A zero entry for the central agent is equivalent to absence.
        schedule = ReservationSchedule({("P1", 1): 0.0})
        penalties = penalties_from_reservations(self.config, schedule, self.design)
        assert penalties[self.design.column_of("P1", 1)] == 0.0

    def test_design_must_cover_config_agents(self):
        partial = build_lag_matrix(self.roster[:3], LAG)
        with pytest.raises(InvalidInputError):
            penalties_from_reservations(
                self.config, ReservationSchedule.uniform(SUPPORTS, 3, 0.1), partial
            )


class TestClearMarket:
    def test_huge_reservations_collapse_to_self_regression(self):
        config, roster = default_market(seed=2)
        outcome = clear_market(
            config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 1e6)
        )
        assert all(record.coefficient == 0.0 for record in outcome.payments)
        assert all(record.amount == 0.0 for record in outcome.payments)
        assert outcome.market_loss.mse <= outcome.baseline_loss.mse + 1e-6
        assert outcome.buyer_net_gain >= -1e-6

    def test_free_data_is_plain_ols_over_all_features(self):
        config, roster = default_market(seed=2)
        outcome = clear_market(
            config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.0)
        )
        assert outcome.total_payments == 0.0
        assert outcome.market_loss.mse <= outcome.baseline_loss.mse + 1e-6

    def test_default_study_pays_lag_one_features(self):
        config, roster = default_market(seed=0)
        schedule = ReservationSchedule.uniform(SUPPORTS, 3, 0.1)
        outcome = clear_market(config, roster, schedule)
        for agent in SUPPORTS:
            paid = sum(r.amount for r in outcome.payments if r.agent_id == agent)
            assert paid > 0.0
        # Independently rebuild each payment from the stored coefficients.
        for record in outcome.payments:
            column = outcome.design_all.column_of(record.agent_id, record.lag)
            beta = float(outcome.market_beta[column])
            assert record.coefficient == beta
            assert record.amount == abs(schedule.get(record.agent_id, record.lag) * beta)

    def test_payment_sum_equals_penalty_term_exactly(self):
        config, roster = default_market(seed=4)
        outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.07))
        assert outcome.market_loss.penalty_term == sum(r.amount for r in outcome.payments)
        assert outcome.market_loss.lasso_loss == outcome.market_loss.mse + outcome.market_loss.penalty_term

    def test_payment_zero_iff_coefficient_zero(self):
        config, roster = default_market(seed=5)
        outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.15))
        for record in outcome.payments:
            assert (record.amount == 0.0) == (record.coefficient == 0.0)

    def test_one_record_per_support_feature(self):
        config, roster = default_market(seed=0)
        outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.1))
        keys = [(r.agent_id, r.lag) for r in outcome.payments]
        assert len(keys) == len(SUPPORTS) * LAG.max_lag
        assert len(set(keys)) == len(keys)

    def test_missing_series_rejected(self):
        config, roster = default_market(seed=0)
        with pytest.raises(InvalidInputError, match="P5"):
            clear_market(config, roster[:-1], ReservationSchedule.uniform(SUPPORTS, 3, 0.1))

    def test_duplicate_series_rejected(self):
        config, roster = default_market(seed=0)
        with pytest.raises(InvalidInputError, match="duplicate"):
            clear_market(config, roster + [roster[0]], ReservationSchedule.uniform(SUPPORTS, 3, 0.1))

    def test_solver_settings_propagate(self):
        config, roster = default_market(seed=0)
        strangled = dataclasses.replace(
            config, solver=SolverSettings(tolerance=1e-12, max_iterations=1)
        )
        with pytest.raises(ConvergenceError):
            clear_market(strangled, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.1))

    def test_central_feature_immunity(self):
        config, roster = default_market(seed=6)
        outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.2))
        residual = outcome.target - outcome.design_all.values @ outcome.market_beta
        T = LAG.window_length
        for lag in (1, 2, 3):
            column = outcome.design_all.values[:, outcome.design_all.column_of("P1", lag)]
            assert abs((2.0 / T) * float(column @ residual)) <= 10 * config.solver.tolerance

    def test_raising_reservation_eventually_zeroes_feature(self):
        config, roster = default_market(seed=0)
        u = 0.1
        for _ in range(25):
            schedule = ReservationSchedule.uniform(SUPPORTS, 3, u)
            outcome = clear_market(config, roster, schedule)
            coefficient = outcome.market_beta[outcome.design_all.column_of("P3", 1)]
            if coefficient == 0.0:
                break
            u *= 2.0
        else:
            pytest.fail("feature never shrank to zero as its reservation doubled")


class TestPreparedMarket:
    def test_clear_equals_clear_market_exactly(self):
        config, roster = default_market(seed=3)
        market = PreparedMarket(config, roster)
        for u in (0.0, 0.05, 0.3):
            schedule = ReservationSchedule.uniform(SUPPORTS, 3, u)
            prepared = market.clear(schedule)
            direct = clear_market(config, roster, schedule)
            assert np.array_equal(prepared.market_beta, direct.market_beta)
            assert prepared.payments == direct.payments
            assert prepared.buyer_net_gain == direct.buyer_net_gain

    def test_points_share_one_gram(self, monkeypatch):
        computed = []
        gram = DesignMatrix.gram.func

        def counted(design):
            computed.append(design)
            return gram(design)

        cached = functools.cached_property(counted)
        cached.__set_name__(DesignMatrix, "gram")
        monkeypatch.setattr(DesignMatrix, "gram", cached)
        config, roster = default_market(seed=3)
        market = PreparedMarket(config, roster)
        outcomes = [
            market.clear(ReservationSchedule.uniform(SUPPORTS, 3, u)) for u in (0.0, 0.05, 0.3)
        ]
        assert computed == [market.design_all]
        assert all(outcome.design_all.gram is market.design_all.gram for outcome in outcomes)

    @pytest.mark.parametrize("length", [0, -1, 241])
    def test_window_outside_the_prepared_one_rejected(self, length):
        config, roster = default_market(seed=0)
        market = PreparedMarket(config, roster)
        assert market.window(240) is market
        with pytest.raises(InvalidInputError, match=r"outside 1\.\.240"):
            market.window(length)

    def test_failed_viability_raises_with_both_sides(self, monkeypatch):
        # A solver that returns all zeros drops even the buyer's own
        # features, so loss plus payments exceeds the baseline.
        import regmarket.market as market_module

        monkeypatch.setattr(
            market_module, "weighted_lasso_fit", lambda X, y, penalties, settings: np.zeros(X.n_cols)
        )
        config, roster = default_market(seed=0)
        with pytest.raises(ViabilityError) as caught:
            clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.1))
        assert caught.value.market_side > caught.value.baseline_side


class TestScaleInvariance:
    """Rescaling the data by s and the reservations by s^2 is the same market.

    Every lag feature, the target and every seller's ask change units
    together, so the cleared feature coefficients are unchanged, the
    intercept scales by s, and every loss and payment scales by s^2.
    """

    @pytest.mark.parametrize("scale", [1e-3, 1e5])
    def test_units_do_not_change_the_clearing(self, scale):
        config, roster = default_market(seed=0)
        reference = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.1))
        scaled_roster = [dataclasses.replace(series, values=series.values * scale) for series in roster]
        scaled = clear_market(
            config, scaled_roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.1 * scale**2)
        )

        assert np.max(np.abs(scaled.market_beta[1:] - reference.market_beta[1:])) <= 1e-9
        assert scaled.market_beta[0] / scale == pytest.approx(reference.market_beta[0], rel=1e-9)
        squared = scale**2
        assert [record.amount / squared for record in scaled.payments] == pytest.approx(
            [record.amount for record in reference.payments], rel=1e-9, abs=1e-12
        )
        assert reference.total_payments > 0.0
        assert scaled.market_loss.mse / squared == pytest.approx(reference.market_loss.mse, rel=1e-9)
        assert scaled.baseline_loss.mse / squared == pytest.approx(
            reference.baseline_loss.mse, rel=1e-9
        )


FEATURES = tuple((agent, lag) for agent in SUPPORTS for lag in range(1, LAG.max_lag + 1))
reservation_prices = st.lists(
    st.floats(0.0, 1.0), min_size=len(FEATURES), max_size=len(FEATURES)
).map(lambda prices: ReservationSchedule(dict(zip(FEATURES, prices))))


def slack(outcome):
    """Solver-tolerance allowance, relative to the buyer's baseline loss."""
    return 1e-12 * outcome.baseline_loss.mse


class TestMetamorphic:
    """Relations between clearings of related markets, for any data and prices.

    The buyer's net gain is its baseline MSE minus the optimal value of the
    penalized fit (MSE plus payments). That optimum cannot fall when a
    penalty rises, cannot rise when features are added (their coefficients
    may stay zero), and does not depend on the order of the sellers.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        schedule=reservation_prices,
        feature=st.sampled_from(FEATURES),
        rise=st.floats(1e-6, 1.0),
    )
    def test_raising_a_reservation_never_raises_the_gain(self, seed, schedule, feature, rise):
        config, roster = default_market(seed=seed)
        market = PreparedMarket(config, roster)
        raised = dict(schedule.entries)
        raised[feature] += rise
        before = market.clear(schedule)
        after = market.clear(ReservationSchedule(raised))
        assert after.buyer_net_gain <= before.buyer_net_gain + slack(before)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), schedule=reservation_prices, added=st.sampled_from(SUPPORTS))
    def test_adding_a_seller_never_lowers_the_gain(self, seed, schedule, added):
        config, roster = default_market(seed=seed)
        fewer = dataclasses.replace(
            config, support_agents=tuple(a for a in SUPPORTS if a != added)
        )
        kept = {key: u for key, u in schedule.entries.items() if key[0] != added}
        before = clear_market(fewer, roster, ReservationSchedule(kept))
        after = clear_market(config, roster, schedule)
        assert after.buyer_net_gain >= before.buyer_net_gain - slack(before)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        schedule=reservation_prices,
        order=st.permutations(SUPPORTS),
    )
    def test_seller_order_does_not_change_the_optimum(self, seed, schedule, order):
        config, roster = default_market(seed=seed)
        permuted = dataclasses.replace(config, support_agents=tuple(order))
        first = clear_market(config, roster, schedule)
        second = clear_market(permuted, roster, schedule)
        objective = lambda outcome: outcome.market_loss.mse + outcome.total_payments
        assert abs(objective(second) - objective(first)) <= slack(first)


class TestVerifyBuyerViability:
    def test_converged_clearing_verifies(self):
        config, roster = default_market(seed=1)
        outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.1))
        check = verify_buyer_viability(outcome)
        assert check.holds
        assert check.gap <= check.tolerance
        assert check.market_mse > 0 and check.baseline_mse > 0

    def test_inflated_payment_fails_with_unit_gap(self):
        # Full shrinkage makes the true slack tiny, so inflating one payment
        # by 1.0 shows up as a gap of about 1.0.
        config, roster = default_market(seed=1)
        outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 1e6))
        tampered = list(outcome.payments)
        tampered[0] = dataclasses.replace(tampered[0], amount=tampered[0].amount + 1.0)
        forged = dataclasses.replace(outcome, payments=tuple(tampered))
        check = verify_buyer_viability(forged)
        assert not check.holds
        assert 0.9 < check.gap < 1.0001

    def test_randomized_scenarios_always_verify(self):
        rng = np.random.default_rng(987)
        for k in range(25):
            n_agents = int(rng.integers(2, 7))
            max_lag = int(rng.integers(1, 5))
            window = int(rng.integers(50, 501))
            n_independent = n_agents - 1
            spec = SyntheticSpec(
                n_independent=n_independent,
                ar_coefficients=tuple(rng.uniform(-0.2, 0.9, n_independent)),
                noise_std=tuple(rng.uniform(0.3, 2.0, n_independent)),
                cross_coefficients=tuple(rng.uniform(-0.5, 0.5, n_independent)),
                dependent_phi=float(rng.uniform(-0.3, 0.6)),
                dependent_noise_std=float(rng.uniform(0.3, 1.5)),
                seed=int(rng.integers(0, 2**31)),
            )
            roster = synthetic_market_series(spec, history=max_lag, window=window)
            ids = [s.agent_id for s in roster]
            central = ids[k % len(ids)]
            supports = tuple(a for a in ids if a != central)
            config = MarketConfig(central, supports, LagSpec(max_lag, window))
            schedule = ReservationSchedule(
                {(a, lag): float(rng.uniform(0, 1)) for a in supports for lag in range(1, max_lag + 1)}
            )
            outcome = clear_market(config, roster, schedule)
            assert verify_buyer_viability(outcome).holds
