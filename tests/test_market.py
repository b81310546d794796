import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regmarket import (
    VIABILITY_TOLERANCE,
    AgentSeries,
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


def duplicate_seller_market():
    """Default market, seed 2, with P3's series replaced by P4's.

    P3's lag-3 feature carries a tiny reservation and its copy, P4's, is
    free, so the optimum moves all the lag-3 weight onto P4.
    """
    config, roster = default_market(seed=2)
    source = next(series for series in roster if series.agent_id == "P4")
    roster = [
        dataclasses.replace(series, values=source.values) if series.agent_id == "P3" else series
        for series in roster
    ]
    return config, roster, ReservationSchedule({("P3", 3): 6.6e-6})


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


class TestMarketConfig:
    def test_central_cannot_support(self):
        with pytest.raises(InvalidInputError):
            MarketConfig("P1", ("P1", "P2"), LAG)

    def test_resolve_names_every_other_agent_in_data_order(self):
        config = MarketConfig("P3", None, LAG).resolve(["P5", "P1", "P3", "P2"])
        assert config == MarketConfig("P3", ("P5", "P1", "P2"), LAG)

    @pytest.mark.parametrize(
        ("central", "supports", "field"),
        [("P9", None, "central_agent"), ("P9", ("P2",), "central_agent"), ("P1", ("P2", "P9"), "support_agents")],
        ids=["central-of-open-roster", "central-of-listed-roster", "listed-seller"],
    )
    def test_resolve_names_a_missing_agent_by_its_field(self, central, supports, field):
        with pytest.raises(InvalidInputError, match=f"^{field} .*'P9'") as caught:
            MarketConfig(central, supports, LAG).resolve(["P1", "P2", "P3"])
        assert caught.value.field == field

    @pytest.mark.parametrize("supports", [None, ("P3", "P2")], ids=["open-roster", "listed-roster"])
    def test_a_resolved_config_resolves_to_an_equal_one(self, supports):
        ids = ["P1", "P2", "P3"]
        resolved = MarketConfig("P1", supports, LAG).resolve(ids)
        assert resolved.support_agents == (supports or ("P2", "P3"))  # a listed roster keeps its order
        assert resolved.resolve(ids) == resolved

    def test_a_prepared_market_holds_its_resolved_config(self):
        _, roster = default_market(seed=0)
        market = PreparedMarket(MarketConfig("P1", None, LAG), roster)
        assert market.config == MarketConfig("P1", SUPPORTS, LAG)


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
        assert outcome.market_mse <= outcome.market.baseline_mse + 1e-6
        assert outcome.buyer_net_gain >= -1e-6

    def test_free_data_is_plain_ols_over_all_features(self):
        config, roster = default_market(seed=2)
        outcome = clear_market(
            config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.0)
        )
        assert outcome.total_payments == 0.0
        assert outcome.market_mse <= outcome.market.baseline_mse + 1e-6

    def test_default_study_pays_lag_one_features(self):
        config, roster = default_market(seed=0)
        schedule = ReservationSchedule.uniform(SUPPORTS, 3, 0.1)
        outcome = clear_market(config, roster, schedule)
        for agent in SUPPORTS:
            paid = sum(r.amount for r in outcome.payments if r.agent_id == agent)
            assert paid > 0.0
        # Independently rebuild each payment from the stored coefficients.
        for record in outcome.payments:
            column = outcome.market.design_all.column_of(record.agent_id, record.lag)
            beta = float(outcome.market_beta[column])
            assert record.coefficient == beta
            assert record.amount == abs(schedule.get(record.agent_id, record.lag) * beta)

    def test_payment_sum_equals_penalty_term_exactly(self):
        config, roster = default_market(seed=4)
        outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, 0.07))
        assert outcome.total_payments == sum(r.amount for r in outcome.payments)
        assert outcome.buyer_net_gain == outcome.market.baseline_mse - outcome.market_mse - outcome.total_payments

    def test_market_without_sellers_pays_a_float_zero(self):
        _, roster = default_market(seed=0)
        config = MarketConfig("P1", (), LAG)
        outcome = clear_market(config, roster, ReservationSchedule({}))
        assert outcome.payments == ()
        assert type(outcome.total_payments) is float and outcome.total_payments == 0.0

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
        residual = outcome.market.target - outcome.market.design_all.values @ outcome.market_beta
        T = LAG.window_length
        for lag in (1, 2, 3):
            column = outcome.market.design_all.values[:, outcome.market.design_all.column_of("P1", lag)]
            assert abs((2.0 / T) * float(column @ residual)) <= 10 * config.solver.tolerance

    def test_raising_reservation_eventually_zeroes_feature(self):
        config, roster = default_market(seed=0)
        u = 0.1
        for _ in range(25):
            schedule = ReservationSchedule.uniform(SUPPORTS, 3, u)
            outcome = clear_market(config, roster, schedule)
            coefficient = outcome.market_beta[outcome.market.design_all.column_of("P3", 1)]
            if coefficient == 0.0:
                break
            u *= 2.0
        else:
            pytest.fail("feature never shrank to zero as its reservation doubled")


class TestDuplicateSeller:
    def test_penalized_copy_clears_to_exact_zero(self):
        config, roster, schedule = duplicate_seller_market()
        outcome = clear_market(config, roster, schedule)
        assert outcome.market_beta[outcome.market.design_all.column_of("P3", 3)] == 0.0
        assert outcome.total_payments == 0.0
        # The free copy carries the weight: same fit as with P3's lag 3 priced out.
        priced_out = clear_market(config, roster, ReservationSchedule({("P3", 3): 1e6}))
        assert outcome.market_mse == pytest.approx(priced_out.market_mse, rel=1e-12)


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
        assert all(outcome.market.design_all.gram is market.design_all.gram for outcome in outcomes)

    def test_one_lag_matrix_per_prepare(self, monkeypatch):
        import regmarket.market as market_module

        built = []

        def counted(series_list, spec):
            built.append(spec)
            return build_lag_matrix(series_list, spec)

        monkeypatch.setattr(market_module, "build_lag_matrix", counted)
        config, roster = default_market(seed=1)
        market = PreparedMarket(config, roster)
        assert built == [LAG]
        shorter = market.window(120)
        shorter.clear(ReservationSchedule.uniform(SUPPORTS, 3, 0.1))
        assert built == [LAG]

        central = next(series for series in roster if series.agent_id == "P1")
        for prepared, spec in ((market, LAG), (shorter, LagSpec(3, 120))):
            own = build_lag_matrix([central], spec)
            assert np.array_equal(prepared.design_self.values, own.values)
            assert prepared.design_self.column_map == own.column_map

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
        assert scaled.market_mse / squared == pytest.approx(reference.market_mse, rel=1e-9)
        assert scaled.market.baseline_mse / squared == pytest.approx(reference.market.baseline_mse, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-3, 1e5])
    def test_viability_slack_follows_the_baseline(self, scale):
        # Full shrinkage leaves a true gap of about 0, so a forged payment
        # is the gap. The slack is VIABILITY_TOLERANCE times the baseline
        # MSE in any units: 1e-5 x baseline is caught, 1e-7 x baseline is
        # inside it.
        config, roster = default_market(seed=0)
        scaled_roster = [dataclasses.replace(series, values=series.values * scale) for series in roster]
        outcome = clear_market(
            config, scaled_roster, ReservationSchedule.uniform(SUPPORTS, 3, 1e6 * scale**2)
        )
        baseline = outcome.market.baseline_mse

        def check_with_extra_payment(extra):
            tampered = list(outcome.payments)
            tampered[0] = dataclasses.replace(tampered[0], amount=tampered[0].amount + extra)
            return verify_buyer_viability(dataclasses.replace(outcome, payments=tuple(tampered)))

        assert check_with_extra_payment(0.0).tolerance == VIABILITY_TOLERANCE * baseline
        assert check_with_extra_payment(0.0).holds
        assert not check_with_extra_payment(1e-5 * baseline).holds
        assert check_with_extra_payment(1e-7 * baseline).holds


FEATURES = tuple((agent, lag) for agent in SUPPORTS for lag in range(1, LAG.max_lag + 1))
reservation_prices = st.lists(
    st.floats(0.0, 1.0), min_size=len(FEATURES), max_size=len(FEATURES)
).map(lambda prices: ReservationSchedule(dict(zip(FEATURES, prices))))


def slack(outcome):
    """Solver-tolerance allowance, relative to the buyer's baseline loss."""
    return 1e-12 * outcome.market.baseline_mse


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
        copied=st.sampled_from(SUPPORTS),
        ask=st.floats(0.0, 1.0),
    )
    # A copy of a free seller at a tiny ask: the optimum drops the copy.
    @example(seed=2, schedule=ReservationSchedule({}), copied="P4", ask=6.6e-6)
    def test_adding_a_duplicate_seller_never_lowers_the_gain(self, seed, schedule, copied, ask):
        config, roster = default_market(seed=seed)
        source = next(series for series in roster if series.agent_id == copied)
        roster.append(dataclasses.replace(source, agent_id="P6"))
        wider = dataclasses.replace(config, support_agents=SUPPORTS + ("P6",))
        asks = dict(schedule.entries)
        asks.update({("P6", lag): ask for lag in range(1, LAG.max_lag + 1)})
        before = clear_market(config, roster, schedule)
        after = clear_market(wider, roster, ReservationSchedule(asks))
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
        objective = lambda outcome: outcome.market_mse + outcome.total_payments
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

    def test_exact_fit_buyer_verifies(self):
        # P1 follows y_t = 1.6 y_{t-1} - y_{t-2} exactly, so its own lags fit
        # it to rounding and the baseline MSE is about 0. A gap at the
        # target's rounding level still verifies; a real one is caught.
        rng = np.random.default_rng(5)
        length = LAG.max_lag + LAG.window_length
        y = np.zeros(length)
        y[:2] = (1.0, 0.3)
        for t in range(2, length):
            y[t] = 1.6 * y[t - 1] - y[t - 2]
        roster = [AgentSeries("P1", y, LAG.max_lag)]
        roster += [AgentSeries(agent, rng.normal(size=length), LAG.max_lag) for agent in SUPPORTS]
        config = MarketConfig("P1", SUPPORTS, LAG)
        for u in (0.0, 0.1):
            outcome = clear_market(config, roster, ReservationSchedule.uniform(SUPPORTS, 3, u))
            assert outcome.market.baseline_mse < 1e-20
            assert verify_buyer_viability(outcome).holds
            for extra, holds in ((1e-30, True), (1e-12, False)):
                tampered = list(outcome.payments)
                tampered[0] = dataclasses.replace(tampered[0], amount=tampered[0].amount + extra)
                forged = dataclasses.replace(outcome, payments=tuple(tampered))
                assert verify_buyer_viability(forged).holds is holds

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
