import dataclasses
import functools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regmarket import (
    VIABILITY_TOLERANCE,
    AgentSeries,
    ConvergenceError,
    InvalidInputError,
    LagSpec,
    MarketConfig,
    NormalEquations,
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


def assert_buyer_design(X, market):
    """``X`` is ``market``'s buyer design: to the bit, the intercept and buyer columns that lead ``design_all``."""
    own = market.design_all.prefix(agents=1)
    assert X.column_map == own.column_map
    assert X.values.tobytes() == own.values.tobytes()


def with_extra_payment(outcome, extra):
    """``outcome`` with ``extra`` added to its first payment."""
    tampered = outcome.payments.copy()
    tampered[0] += extra
    return dataclasses.replace(outcome, payments=tampered)


def exact_fit_roster(seed):
    """P1 follows y_t = 1.6 y_{t-1} - y_{t-2} exactly, so its own lags fit it
    to rounding; the sellers are white noise drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    length = LAG.max_lag + LAG.window_length
    y = np.zeros(length)
    y[:2] = (1.0, 0.3)
    for t in range(2, length):
        y[t] = 1.6 * y[t - 1] - y[t - 2]
    roster = [AgentSeries("P1", y, LAG.max_lag)]
    return roster + [AgentSeries(agent, rng.normal(size=length), LAG.max_lag) for agent in SUPPORTS]


def raw_design(roster, config):
    """The clearing's design and target, built here from the series values.

    Column 0 is the intercept; then, for the buyer and each seller in turn,
    its lags ``max_lag`` down to 1.
    """
    T, D = config.lag_spec.window_length, config.lag_spec.max_lag
    by_id = {series.agent_id: series for series in roster}
    columns = [np.ones(T)]
    for agent in (config.central_agent, *config.support_agents):
        series = by_id[agent]
        columns += [series.values[series.start_time - lag : series.start_time - lag + T] for lag in range(D, 0, -1)]
    buyer = by_id[config.central_agent]
    return np.column_stack(columns), buyer.values[buyer.start_time : buyer.start_time + T]


def shifted(roster):
    """Each series as a prepared market reads it: less its first sample, then less the mean of that difference."""
    steps = [series.values - series.values[0] for series in roster]
    return [dataclasses.replace(series, values=step - np.mean(step)) for series, step in zip(roster, steps)]


def change_form_bound(A, y, beta, start):
    """How far rounding can put a clearing's ``market_mse`` from ``||y - A beta||^2 / T``.

    The clearing measures its loss as a change from its start b0 (the
    baseline fit): with d = beta - b0, G = A'A and q0 = A'y - G b0, it is
    baseline_mse + (d'G d - 2 d'q0) / T. Let u = eps/2, gamma_n = n u / (1 -
    n u) (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3) with
    n = T + 2P + 4, a_t = |y_t| + |A_t| |beta|, a0_t = |y_t| + |A_t| |b0| and
    e = a + a0, so that |A_t| |d| <= e_t. Then, summed over the rows:

    * the fresh MSE here and the market's baseline MSE are each a residual
      of P + 1 terms squared and summed over T rows, off by at most
      gamma_n * sum(a^2) and gamma_n * sum(a0^2); a^2 + a0^2 <= e^2;
    * each entry j of G b0, A'y and q0 is off by at most gamma_n times
      sum_t |A_tj| a0_t, so d'q0, with its own dot product, is off by at most
      gamma_n * sum(e a0) <= gamma_n * sum(e^2), and 2 d'q0 by twice that;
    * d'G d, with G's rounding, by at most gamma_n * sum(e^2);
    * rounding d itself moves the loss by at most 2u * sum(e^2), and the
      last subtraction, division and addition by at most 10u * sum(e^2);
      12u <= gamma_n.

    In all, 5 gamma_n * sum(e^2) / T; this bound allows 6 for the terms of
    second order in u. The clearing's floor at 0 only moves its value
    toward the fresh one, which is never negative.
    """
    n_rows, n_cols = A.shape
    n = n_rows + 2 * n_cols + 4
    unit = np.finfo(float).eps / 2
    gamma = n * unit / (1 - n * unit)
    e = 2 * np.abs(y) + np.abs(A) @ (np.abs(beta) + np.abs(start))
    return 6 * gamma * float(e @ e) / n_rows


class TestReservationSchedule:
    def test_default_covers_all_lags(self):
        market = PreparedMarket(*default_market(seed=0))
        prices = dict(zip(market.seller_features, market.prices(ReservationSchedule(default=0.3)).tolist()))
        assert prices[("P2", 1)] == 0.3
        assert prices[("P5", 3)] == 0.3
        prices = dict(zip(market.seller_features, market.prices(ReservationSchedule({("P2", 1): 0.3})).tolist()))
        assert prices[("P3", 1)] == 0.0  # absent, and no default, means free

    @pytest.mark.parametrize("entries", [{}, {("A", 1): 0.1}], ids=["no-entries", "one-entry"])
    @pytest.mark.parametrize("u", [float("nan"), -1.0, True, "x"], ids=["nan", "negative", "bool", "string"])
    def test_default_rejects_a_bad_u_for_any_entries(self, entries, u):
        with pytest.raises(InvalidInputError, match="^default ") as caught:
            ReservationSchedule(entries, default=u)
        assert caught.value.field == "default"

    def test_negative_reservation_rejected(self):
        with pytest.raises(InvalidInputError):
            ReservationSchedule({("A", 1): -0.1})

    def test_bad_lag_rejected(self):
        with pytest.raises(InvalidInputError):
            ReservationSchedule({("A", 0): 0.1})

    @pytest.mark.parametrize(
        "entries", [5, "ab", {5: 0.1}, {("P2", 1, 2): 0.1}], ids=["number", "string", "bare-key", "triple-key"]
    )
    def test_entries_that_are_no_pair_to_price_mapping_are_rejected_naming_entries(self, entries):
        with pytest.raises(InvalidInputError, match="^entries ") as caught:
            ReservationSchedule(entries)
        assert caught.value.field == "entries"

    def test_entries_take_a_mapping_or_pairs_and_price_each_feature_once(self):
        pairs = [(("P2", 1), 0.1), (("P3", 2.0), 0.2)]
        expected = {("P2", 1): 0.1, ("P3", 2): 0.2}
        assert ReservationSchedule(pairs).entries == ReservationSchedule(iter(pairs)).entries == expected
        assert ReservationSchedule(dict(pairs)).entries == expected
        twice = [*pairs, (("P2", 1.0), 0.5)]  # lag 1.0 is lag 1
        for entries in (twice, iter(twice)):
            with pytest.raises(InvalidInputError, match=r"^entries price agent 'P2' lag 1\.0 more than once$") as err:
                ReservationSchedule(entries)
            assert err.value.field == "entries"


@functools.cache
def small_market(n_sellers, sellers, max_lag):
    """A synthetic market of ``n_sellers`` AR(1) sellers and buyer P1; ``sellers=None`` buys from all."""
    spec = SyntheticSpec(
        seed=n_sellers,
        n_independent=n_sellers,
        ar_coefficients=(0.5, 0.3, 0.3, 0.3)[:n_sellers],
        noise_std=(0.4, 1.0, 1.0, 2.0)[:n_sellers],
        cross_coefficients=(0.4, 0.3, 0.2, 0.1)[:n_sellers],
    )
    lag = LagSpec(max_lag=max_lag, window_length=40)
    roster = synthetic_market_series(spec, history=max_lag, window=lag.window_length)
    return PreparedMarket(MarketConfig("P1", sellers, lag), roster)


class TestDefaultPrice:
    """``ReservationSchedule(default=u)`` prices every seller feature of any market at ``u``."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_sellers=st.integers(1, 4),
        pick_sellers=st.none() | st.lists(st.integers(0, 3), unique=True, max_size=4),
        max_lag=st.integers(1, 4),
        u=st.floats(0.0, 1e3),
        picks=st.lists(st.tuples(st.integers(0, 15), st.floats(0.0, 1e3)), max_size=6),
    )
    # The README's open roster, MarketConfig("P1", None, lag): its prices once needed the sellers restated.
    @example(n_sellers=4, pick_sellers=None, max_lag=3, u=0.1, picks=[])
    def test_default_fills_every_feature_the_entries_leave_out(self, n_sellers, pick_sellers, max_lag, u, picks):
        agents = tuple(f"P{k + 2}" for k in range(n_sellers))
        sellers = None if pick_sellers is None else tuple(agents[k] for k in pick_sellers if k < n_sellers)
        market = small_market(n_sellers, sellers, max_lag)
        features = market.seller_features
        assert len(features) == len(market.config.support_agents) * max_lag

        prices = market.prices(ReservationSchedule(default=u))
        assert prices.tobytes() == np.full(len(features), u).tobytes()
        assert prices.tobytes() == market.prices(ReservationSchedule(dict.fromkeys(features, u))).tobytes()

        entries = {features[k % len(features)]: price for k, price in picks} if features else {}
        partial = market.prices(ReservationSchedule(entries, default=u)).tolist()
        assert partial == [entries.get(feature, u) for feature in features]

        with pytest.raises(InvalidInputError, match="^entries price central agent 'P1'") as caught:
            market.prices(ReservationSchedule({("P1", max_lag): 1.0}, default=u))
        assert caught.value.field == "entries"


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
        self.market = PreparedMarket(self.config, self.roster)
        self.design = self.market.design_all

    def penalties(self, schedule):
        return penalties_from_reservations(self.market, self.market.prices(schedule))

    def test_zero_reservations_give_zero_penalties(self):
        schedule = ReservationSchedule(default=0.0)
        penalties = self.penalties(schedule)
        assert np.all(penalties == 0.0)

    def test_uniform_reservation_arithmetic(self):
        schedule = ReservationSchedule(default=0.1)
        penalties = self.penalties(schedule)
        assert penalties[0] == 0.0
        for lag in (1, 2, 3):
            assert penalties[self.design.column_of("P1", lag)] == 0.0
        for agent in SUPPORTS:
            for lag in (1, 2, 3):
                value = penalties[self.design.column_of(agent, lag)]
                assert value == (240 / 2) * 0.1
                assert value == pytest.approx(12.0)

    def test_free_agent_is_unpenalized(self):
        schedule = ReservationSchedule({(agent, lag): 0.2 for agent in ("P3", "P4", "P5") for lag in (1, 2, 3)})
        penalties = self.penalties(schedule)
        for lag in (1, 2, 3):
            assert penalties[self.design.column_of("P2", lag)] == 0.0
            assert penalties[self.design.column_of("P3", lag)] == 24.0

    def test_reservation_without_design_column_rejected(self):
        schedule = ReservationSchedule({("P9", 1): 0.1})
        with pytest.raises(InvalidInputError, match="P9"):
            self.penalties(schedule)
        schedule = ReservationSchedule({("P2", 4): 0.1})
        with pytest.raises(InvalidInputError, match="lag 4"):
            self.penalties(schedule)

    def test_free_buyer_entry_without_design_column_rejected(self):
        # The buyer's one extra rule is a price of 0; its entries still need a design column.
        schedule = ReservationSchedule({("P1", 9): 0.0})
        with pytest.raises(InvalidInputError, match="^entries price agent 'P1' lag 9, which has no design column$") as err:
            self.penalties(schedule)
        assert err.value.field == "entries"

    def test_central_agent_cannot_sell(self):
        schedule = ReservationSchedule({("P1", 1): 0.1})
        with pytest.raises(InvalidInputError, match="central"):
            self.penalties(schedule)
        # A zero entry for the central agent is equivalent to absence.
        schedule = ReservationSchedule({("P1", 1): 0.0})
        penalties = self.penalties(schedule)
        assert penalties[self.design.column_of("P1", 1)] == 0.0


class TestClearMarket:
    def test_huge_reservations_collapse_to_self_regression(self):
        config, roster = default_market(seed=2)
        outcome = clear_market(
            config, roster, ReservationSchedule(default=1e6)
        )
        assert all(outcome.market_beta[outcome.market.seller_index] == 0.0)
        assert all(outcome.payments == 0.0)
        assert outcome.market_mse <= outcome.market.baseline_mse + 1e-6
        assert outcome.buyer_net_gain >= -1e-6

    def test_free_data_is_plain_ols_over_all_features(self):
        config, roster = default_market(seed=2)
        outcome = clear_market(
            config, roster, ReservationSchedule(default=0.0)
        )
        assert outcome.total_payments == 0.0
        assert outcome.market_mse <= outcome.market.baseline_mse + 1e-6

    def test_default_study_pays_lag_one_features(self):
        config, roster = default_market(seed=0)
        schedule = ReservationSchedule(default=0.1)
        outcome = clear_market(config, roster, schedule)
        features = outcome.market.seller_features
        for agent in SUPPORTS:
            paid = sum(amount for (a, _), amount in zip(features, outcome.payments) if a == agent)
            assert paid > 0.0
        # Independently rebuild each payment from the stored coefficients.
        for k, (agent, lag) in enumerate(features):
            column = outcome.market.design_all.column_of(agent, lag)
            beta = float(outcome.market_beta[column])
            assert outcome.market_beta[outcome.market.seller_index[k]] == beta
            assert outcome.payments[k] == abs(schedule.entries.get((agent, lag), schedule.default) * beta)

    def test_payment_sum_equals_penalty_term_exactly(self):
        config, roster = default_market(seed=4)
        outcome = clear_market(config, roster, ReservationSchedule(default=0.07))
        assert outcome.total_payments == sum(outcome.payments)
        assert outcome.buyer_net_gain == outcome.market.baseline_mse - outcome.market_mse - outcome.total_payments

    def test_market_without_sellers_pays_a_float_zero(self):
        _, roster = default_market(seed=0)
        config = MarketConfig("P1", (), LAG)
        outcome = clear_market(config, roster, ReservationSchedule({}))
        assert outcome.payments.shape == (0,)
        assert type(outcome.total_payments) is float and outcome.total_payments == 0.0

    def test_payment_zero_iff_coefficient_zero(self):
        config, roster = default_market(seed=5)
        outcome = clear_market(config, roster, ReservationSchedule(default=0.15))
        for amount, coefficient in zip(outcome.payments, outcome.market_beta[outcome.market.seller_index]):
            assert (amount == 0.0) == (coefficient == 0.0)

    def test_one_record_per_support_feature(self):
        config, roster = default_market(seed=0)
        outcome = clear_market(config, roster, ReservationSchedule(default=0.1))
        keys = list(outcome.market.seller_features)
        assert len(outcome.payments) == len(keys) == len(SUPPORTS) * LAG.max_lag
        assert len(set(keys)) == len(keys)

    def test_missing_series_rejected(self):
        config, roster = default_market(seed=0)
        with pytest.raises(InvalidInputError, match="P5"):
            clear_market(config, roster[:-1], ReservationSchedule(default=0.1))

    def test_duplicate_series_rejected(self):
        config, roster = default_market(seed=0)
        with pytest.raises(InvalidInputError, match="duplicate"):
            clear_market(config, roster + [roster[0]], ReservationSchedule(default=0.1))

    def test_solver_settings_propagate(self):
        config, roster = default_market(seed=0)
        strangled = dataclasses.replace(
            config, solver=SolverSettings(tolerance=1e-20, max_iterations=1)
        )
        with pytest.raises(ConvergenceError):
            clear_market(strangled, roster, ReservationSchedule(default=0.1))

    def test_central_feature_immunity(self):
        config, roster = default_market(seed=6)
        outcome = clear_market(config, roster, ReservationSchedule(default=0.2))
        residual = outcome.market.target - outcome.market.design_all.values @ outcome.market_beta
        T = LAG.window_length
        for lag in (1, 2, 3):
            column = outcome.market.design_all.values[:, outcome.market.design_all.column_of("P1", lag)]
            assert abs((2.0 / T) * float(column @ residual)) <= 10 * config.solver.tolerance

    def test_raising_reservation_eventually_zeroes_feature(self):
        config, roster = default_market(seed=0)
        u = 0.1
        for _ in range(25):
            schedule = ReservationSchedule(default=u)
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
            schedule = ReservationSchedule(default=u)
            prepared = market.clear(market.prices(schedule))
            direct = clear_market(config, roster, schedule)
            assert np.array_equal(prepared.market_beta, direct.market_beta)
            assert np.array_equal(prepared.payments, direct.payments)
            assert prepared.buyer_net_gain == direct.buyer_net_gain

    def test_points_share_one_gram(self, monkeypatch):
        computed = []
        form = NormalEquations.__post_init__

        def counted(normal):
            computed.append(normal)
            form(normal)

        monkeypatch.setattr(NormalEquations, "__post_init__", counted)
        config, roster = default_market(seed=3)
        market = PreparedMarket(config, roster)
        outcomes = [
            market.clear(market.prices(ReservationSchedule(default=u))) for u in (0.0, 0.05, 0.3)
        ]
        assert computed == [market.normal]
        assert all(outcome.market.normal.gram is market.normal.gram for outcome in outcomes)

    def test_one_lag_matrix_per_prepare(self, monkeypatch):
        import regmarket.market as market_module

        built, fitted, fit = [], [], market_module.ols_fit

        def counted(series_list, spec):
            built.append(spec)
            return build_lag_matrix(series_list, spec)

        def recording(X, y):
            fitted.append(X)
            return fit(X, y)

        monkeypatch.setattr(market_module, "build_lag_matrix", counted)
        monkeypatch.setattr(market_module, "ols_fit", recording)
        config, roster = default_market(seed=1)
        market = PreparedMarket(config, roster)
        assert built == [LAG, LAG]  # the buyer's own lag block, then the roster's one design
        shorter = market.window(120)
        shorter.clear(shorter.prices(ReservationSchedule(default=0.1)))
        assert built == [LAG, LAG]

        # The baseline is fitted on the buyer's lag block of the shifted series: a fresh market's
        # built alone, a window's cut from its one lag matrix.
        central = next(series for series in shifted(roster) if series.agent_id == "P1")
        assert len(fitted) == 2
        for design_self, prepared, spec in zip(fitted, (market, shorter), (LAG, LagSpec(3, 120))):
            assert_buyer_design(design_self, prepared)
            own = build_lag_matrix([central], spec)
            assert np.array_equal(design_self.values, own.values)
            assert design_self.column_map == own.column_map
        assert np.shares_memory(fitted[1].history, market.design_all.history)

    def test_only_the_buyers_shifted_copy_outlives_the_design(self, monkeypatch):
        # Each lag design reads its series once and keeps none of them: by the time
        # the normal equations form, only the buyer's shifted copy, the target's base, is alive.
        import regmarket.market as market_module

        received, alive_at_normal, build, form = [], [], market_module.build_lag_matrix, market_module.NormalEquations

        class Passing:
            """``series_list`` read once, each series' values weakly referenced in ``received[-1]`` as it is read."""

            def __init__(self, series_list):
                self.series_list = series_list
                received.append([])

            def __len__(self):
                return len(self.series_list)

            def __iter__(self):
                for series in self.series_list:
                    received[-1].append(weakref.ref(series.values))
                    yield series

        def forming(design, target):
            alive_at_normal.append([[ref() is not None for ref in refs] for refs in received])
            return form(design, target)

        monkeypatch.setattr(market_module, "build_lag_matrix", lambda series, spec: build(Passing(series), spec))
        monkeypatch.setattr(market_module, "NormalEquations", forming)
        config, roster = default_market(seed=0)
        market = PreparedMarket(config, roster)
        assert alive_at_normal == [[[True], [True, False, False, False, False]]]
        assert received[0][0]() is received[1][0]() is market.target.base

    def test_baseline_fitted_first_and_one_seller_copy_alive_at_a_time(self, monkeypatch):
        # The buyer is moved and its baseline fitted before the roster's design is
        # read; the roster's read moves each seller only as it reads it.
        import regmarket.market as market_module

        events, copies = [], []
        build, fit = market_module.build_lag_matrix, market_module.ols_fit
        move, form = market_module._off_location, market_module.NormalEquations

        def sellers_alive():
            return sum(ref() is not None for ref in copies[1:])  # copies[0] is the buyer's, the target's base

        def building(series_list, spec):
            events.append(("build", len(series_list)))
            return build(series_list, spec)

        def fitting(X, y):
            events.append("fit")
            return fit(X, y)

        def moving(series):
            moved = move(series)
            copies.append(weakref.ref(moved.values))
            events.append(("moved", series.agent_id, sellers_alive()))
            return moved

        def forming(design, target):
            events.append(("normal", sellers_alive()))
            return form(design, target)

        spies = {"build_lag_matrix": building, "ols_fit": fitting, "_off_location": moving, "NormalEquations": forming}
        for name, spy in spies.items():
            monkeypatch.setattr(market_module, name, spy)
        config, roster = default_market(seed=0)
        PreparedMarket(config, roster)
        assert events == [
            ("moved", "P1", 0),
            ("build", 1),
            "fit",
            ("build", 5),
            *(("moved", agent, 1) for agent in SUPPORTS),
            ("normal", 0),
        ]

    def test_peak_memory_stays_near_one_roster(self):
        # Above the roster the caller holds, preparing holds the design's history
        # (one roster's hours) and the buyer's shifted copy, and for a while one
        # seller's copy or the buyer's lag block: never every shifted copy beside
        # the history, nor the buyer's block beside the history.
        n, history, window = 14, 6, 8760
        spec = SyntheticSpec(
            n_independent=n, ar_coefficients=(0.5,) * n, noise_std=(1.0,) * n, cross_coefficients=(0.05,) * n
        )
        roster = synthetic_market_series(spec, history=history, window=window)
        config = MarketConfig("P1", None, LagSpec(history, window))
        PreparedMarket(config, roster)  # leaves numpy's one-off allocations out
        tracemalloc.start()
        try:
            PreparedMarket(config, roster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(series.values.nbytes for series in roster)

    @pytest.mark.parametrize("length", [0, -1, 241])
    def test_window_outside_the_prepared_one_rejected(self, length):
        config, roster = default_market(seed=0)
        market = PreparedMarket(config, roster)
        assert market.window(240) is market
        with pytest.raises(InvalidInputError, match=r"outside 1\.\.240"):
            market.window(length)

    @pytest.mark.parametrize("short", ["P1", "P3"], ids=["buyer", "seller"])
    def test_series_one_hour_short_of_the_window_rejected_alike(self, short):
        config, roster = default_market(seed=0)
        roster = [
            AgentSeries(s.agent_id, s.values[:-1], s.start_time) if s.agent_id == short else s for s in roster
        ]
        message = f"agent '{short}': window of 240 hours needs 243 samples, series has 242 (missing 1)"
        with pytest.raises(InvalidInputError) as caught:
            PreparedMarket(config, roster)
        assert str(caught.value) == message

    def test_failed_viability_raises_with_both_sides(self, monkeypatch):
        # A solver that returns all zeros drops even the buyer's own
        # features, so loss plus payments exceeds the baseline.
        import regmarket.market as market_module

        monkeypatch.setattr(
            market_module, "weighted_lasso_fit", lambda X, y, penalties, settings, start=None, *, normal=None: np.zeros(X.n_cols)
        )
        config, roster = default_market(seed=0)
        with pytest.raises(ViabilityError) as caught:
            clear_market(config, roster, ReservationSchedule(default=0.1))
        assert caught.value.market_side > caught.value.baseline_side


class TestPricesArray:
    """``PreparedMarket.clear`` takes one finite nonnegative price per seller feature.

    NaN, a 2-D array, strings and a ragged list are among the bad arrays
    ``tests/test_settings.py`` gives every array argument.
    """

    def setup_method(self):
        config, roster = default_market(seed=0)
        self.market = PreparedMarket(config, roster)
        self.n = len(self.market.seller_features)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.full(n - 1, 0.1),
            lambda n: np.full(n + 1, 0.1),
            lambda n: np.r_[np.full(n - 1, 0.1), np.inf],
            lambda n: np.r_[np.full(n - 1, 0.1), -1e-9],
        ],
        ids=["short", "long", "infinity", "negative"],
    )
    def test_bad_prices_rejected_naming_prices(self, make):
        with pytest.raises(InvalidInputError, match="^prices") as caught:
            self.market.clear(make(self.n))
        assert caught.value.field == "prices"

    @pytest.mark.parametrize("window", [7, 120])
    def test_a_price_whose_penalty_overflows_is_rejected_naming_the_bound(self, window):
        # The penalty (T/2) * u must be finite. At T=7, max / (T/2) itself
        # rounds to a price whose penalty overflows, so the bound is below it.
        _, roster = default_market(seed=0)
        market = PreparedMarket(MarketConfig("P1", SUPPORTS, LagSpec(3, window)), roster)
        with pytest.raises(InvalidInputError) as direct:  # pytest's error::RuntimeWarning filter fails an overflow
            penalties_from_reservations(market, np.full(self.n, 1e308))
        with pytest.raises(InvalidInputError) as caught:
            market.clear(np.full(self.n, 1e308))
        assert caught.value.field == direct.value.field == "prices"
        assert str(caught.value) == str(direct.value)
        stated = re.fullmatch(
            r"prices must be at most (\S+), above which the penalty \(T/2\) \* u at T=(\d+) is not finite",
            str(caught.value),
        )
        bound = float(stated[1])
        assert int(stated[2]) == window
        half = window / 2.0
        assert math.isfinite(half * bound) and half * math.nextafter(bound, math.inf) == math.inf
        outcome = market.clear(np.full(self.n, bound))
        assert not outcome.payments.any() and outcome.buyer_net_gain == 0.0
        with pytest.raises(InvalidInputError, match="^prices must be at most "):
            market.clear(np.r_[np.zeros(self.n - 1), math.nextafter(bound, math.inf)])

    def test_market_without_sellers_takes_only_an_empty_array(self):
        _, roster = default_market(seed=0)
        market = PreparedMarket(MarketConfig("P1", (), LAG), roster)
        with pytest.raises(InvalidInputError, match="^prices") as caught:
            market.clear([0.1])
        assert caught.value.field == "prices"
        assert market.clear(np.zeros(0)).total_payments == 0.0

    def test_writing_the_callers_array_leaves_the_outcome_alone(self):
        prices = np.full(self.n, 0.1)
        outcome = self.market.clear(prices)
        payments = outcome.payments.copy()
        prices[:] = 7.0
        assert np.all(outcome.prices == 0.1)
        assert np.array_equal(outcome.payments, payments)
        assert np.array_equal(outcome.payments, np.abs(outcome.prices * outcome.market_beta[self.market.seller_index]))
        for array in (outcome.prices, outcome.payments):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("u", [0.0, 0.05, 0.3])
    def test_uniform_array_clears_as_the_uniform_schedule_to_the_bit(self, u):
        market = self.market
        direct = market.clear(np.full(self.n, u))
        scheduled = market.clear(market.prices(ReservationSchedule(default=u)))
        for name in ("market_beta", "prices", "payments"):
            assert getattr(direct, name).tobytes() == getattr(scheduled, name).tobytes()
        penalties = [penalties_from_reservations(market, outcome.prices) for outcome in (direct, scheduled)]
        assert penalties[0].tobytes() == penalties[1].tobytes()
        for name in ("market_mse", "total_payments", "buyer_net_gain"):
            assert getattr(direct, name).hex() == getattr(scheduled, name).hex()

    def test_schedule_prices_follow_the_seller_features(self):
        schedule = ReservationSchedule({("P3", 2): 0.5, ("P2", 1): 1e-9, ("P1", 3): 0.0, ("P5", 3): -0.0})
        prices = self.market.prices(schedule)
        expected = [schedule.entries.get(feature, 0.0) for feature in self.market.seller_features]
        assert prices.tolist() == expected
        assert np.signbit(prices[self.market.seller_features.index(("P5", 3))])


class TestScaleInvariance:
    """Rescaling the data by s and the reservations by s^2 is the same market.

    Every lag feature, the target and every seller's ask change units
    together, so the cleared feature coefficients are unchanged, the
    intercept scales by s, and every loss and payment scales by s^2.
    """

    @pytest.mark.parametrize("scale", [1e-3, 1e5])
    def test_units_do_not_change_the_clearing(self, scale):
        config, roster = default_market(seed=0)
        reference = clear_market(config, roster, ReservationSchedule(default=0.1))
        scaled_roster = [dataclasses.replace(series, values=series.values * scale) for series in roster]
        scaled = clear_market(
            config, scaled_roster, ReservationSchedule(default=0.1 * scale**2)
        )

        assert np.max(np.abs(scaled.market_beta[1:] - reference.market_beta[1:])) <= 1e-9
        assert scaled.market_beta[0] / scale == pytest.approx(reference.market_beta[0], rel=1e-9)
        squared = scale**2
        assert list(scaled.payments / squared) == pytest.approx(list(reference.payments), rel=1e-9, abs=1e-12)
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
            config, scaled_roster, ReservationSchedule(default=1e6 * scale**2)
        )
        baseline = outcome.market.baseline_mse

        def check_with_extra_payment(extra):
            return verify_buyer_viability(with_extra_payment(outcome, extra))

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


class TestLocationInvariance:
    """Adding a constant to any agent's series is the same market.

    The intercept is never penalized, so it absorbs each series' location:
    the seller coefficients, both losses and every payment are unchanged.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        prices=st.lists(st.sampled_from([0.0, 1e-3, 0.02, 0.1, 1.0]), min_size=12, max_size=12),
        offsets=st.lists(st.floats(-1e4, 1e4), min_size=5, max_size=5),
    )
    @example(seed=0, prices=[0.02] * 12, offsets=[1e4] * 5)
    @example(seed=3, prices=[0.0, 0.1, 0.02] * 4, offsets=[-1e4, 1e4, 3e3, -7e3, 1e4])
    def test_offsets_do_not_change_the_clearing(self, seed, prices, offsets):
        config, roster = default_market(seed=seed)
        moved = [dataclasses.replace(s, values=s.values + c * np.std(s.values)) for s, c in zip(roster, offsets)]
        schedule = ReservationSchedule(dict(zip(FEATURES, prices)))
        outcomes = []
        for data in (roster, moved):
            try:
                outcomes.append(clear_market(config, data, schedule))
            except ConvergenceError:
                outcomes.append(None)
        reference, outcome = outcomes
        assert (outcome is None) == (reference is None)
        if reference is None:
            return
        sellers = reference.market.seller_index
        scale = np.max(np.abs(reference.market_beta[1:]))
        assert np.max(np.abs(outcome.market_beta[sellers] - reference.market_beta[sellers])) <= 1e-9 * scale
        baseline = reference.market.baseline_mse
        assert np.max(np.abs(outcome.payments - reference.payments)) <= 1e-9 * baseline
        assert outcome.market.baseline_mse == pytest.approx(baseline, rel=1e-9)
        assert outcome.market_mse == pytest.approx(reference.market_mse, rel=1e-9)

    def test_constant_seller_clears_at_zero(self):
        # Free, a constant seller is collinear with the intercept; shifted off its location it is all zeros.
        config, roster = default_market(seed=0)
        roster.append(AgentSeries("P6", np.full(LAG.max_lag + LAG.window_length, 3.7), LAG.max_lag))
        config = dataclasses.replace(config, support_agents=SUPPORTS + ("P6",))
        outcome = clear_market(config, roster, ReservationSchedule(default=0.0))
        columns = [outcome.market.design_all.column_of("P6", lag) for lag in range(1, LAG.max_lag + 1)]
        assert outcome.market_beta[columns].tolist() == [0.0] * LAG.max_lag

    @pytest.mark.parametrize("agent", ["P1", "P2"], ids=["buyer", "seller"])
    @pytest.mark.parametrize("head", [(-1.5e308, 1.5e308), (0.0, *[1e308] * 3)], ids=["step", "mean"])
    def test_a_shift_that_overflows_is_rejected_naming_the_agent(self, agent, head):
        # Finite values whose steps from the first sample, or their mean, overflow a float.
        config, roster = default_market(seed=0)
        roster = [
            dataclasses.replace(s, values=np.concatenate([head, s.values[len(head) :]])) if s.agent_id == agent else s
            for s in roster
        ]
        with pytest.raises(InvalidInputError) as caught:
            PreparedMarket(config, roster)
        assert str(caught.value) == f"values of agent {agent!r} overflow when moved off their location"
        assert caught.value.field == "values"


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
        before = market.clear(market.prices(schedule))
        after = market.clear(market.prices(ReservationSchedule(raised)))
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
        outcome = clear_market(config, roster, ReservationSchedule(default=0.1))
        check = verify_buyer_viability(outcome)
        assert check.holds
        assert check.gap <= check.tolerance
        assert check.market_mse > 0 and check.baseline_mse > 0

    def test_inflated_payment_fails_with_unit_gap(self):
        # Full shrinkage makes the true slack tiny, so inflating one payment
        # by 1.0 shows up as a gap of about 1.0.
        config, roster = default_market(seed=1)
        outcome = clear_market(config, roster, ReservationSchedule(default=1e6))
        check = verify_buyer_viability(with_extra_payment(outcome, 1.0))
        assert not check.holds
        assert 0.9 < check.gap < 1.0001

    def test_exact_fit_buyer_verifies(self):
        # The buyer's own lags fit it to rounding, so the baseline MSE is
        # about 0. A gap at the target's rounding level still verifies; a
        # real one is caught.
        roster = exact_fit_roster(5)
        config = MarketConfig("P1", SUPPORTS, LAG)
        for u in (0.0, 0.1):
            outcome = clear_market(config, roster, ReservationSchedule(default=u))
            assert outcome.market.baseline_mse < 1e-20
            assert verify_buyer_viability(outcome).holds
            for extra, holds in ((1e-30, True), (1e-12, False)):
                assert verify_buyer_viability(with_extra_payment(outcome, extra)).holds is holds

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


class TestOnePassPerClearing:
    """A clearing reads no design after its solve: its loss is a change from its market's baseline.

    Only preparing a market, or a window of it, reads the buyer's design once,
    for the baseline MSE; the baseline and the slack are the market's.
    """

    def counted_mse(self, monkeypatch):
        import regmarket.market as market_module

        calls, original = [], market_module.mse

        def counted(X, beta, y):
            calls.append(X)
            return original(X, beta, y)

        monkeypatch.setattr(market_module, "mse", counted)
        return calls

    def test_one_mse_per_market_and_none_per_clearing(self, monkeypatch):
        calls = self.counted_mse(monkeypatch)
        config, roster = default_market(seed=1)
        market = PreparedMarket(config, roster)
        assert len(calls) == 1
        assert_buyer_design(calls[0], market)
        for u in (0.0, 0.1, 0.3):
            market.clear(market.prices(ReservationSchedule(default=u)))
        assert len(calls) == 1
        shorter = market.window(120)
        shorter.clear(shorter.prices(ReservationSchedule(default=0.1)))
        assert len(calls) == 2
        assert_buyer_design(calls[1], shorter)

    @pytest.mark.parametrize("seed", range(4))
    def test_outcome_sides_are_the_public_checks(self, seed):
        # The payments, the baseline and the slack are the public check's to
        # the bit; the outcome's loss, a change from the baseline, is within
        # rounding of the check's fresh residual.
        config, roster = default_market(seed=seed)
        market = PreparedMarket(config, roster)
        A, y = raw_design(roster, config)
        for u in (0.0, 0.05, 1e6):
            outcome = market.clear(market.prices(ReservationSchedule(default=u)))
            check = verify_buyer_viability(outcome)
            assert check.holds
            bound = change_form_bound(A, y, outcome.market_beta, market.baseline_start)
            assert abs(outcome.market_mse - check.market_mse) <= bound
            assert outcome.total_payments.hex() == check.total_payments.hex()
            assert check.baseline_mse.hex() == outcome.market.baseline_mse.hex()
            assert check.tolerance.hex() == market.viability_slack.hex()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        exact_fit=st.booleans(),
        duplicate=st.booleans(),
        ahead=st.booleans(),
        exponent=st.floats(-6.0, 6.0),
        asks=st.lists(st.sampled_from([0.0, 1e-3, 0.02, 0.1, 1.0, 1e6]), min_size=1, max_size=3),
    )
    @example(seed=5, exact_fit=True, duplicate=False, ahead=False, exponent=0.0, asks=[0.0, 0.1])
    @example(seed=2, exact_fit=False, duplicate=True, ahead=False, exponent=-6.0, asks=[0.0, 0.02])
    @example(seed=1, exact_fit=False, duplicate=False, ahead=False, exponent=6.0, asks=[1e6, 0.0])
    @example(seed=0, exact_fit=False, duplicate=False, ahead=True, exponent=0.0, asks=[0.0])
    def test_change_form_loss_is_the_fresh_residual_loss(self, seed, exact_fit, duplicate, ahead, exponent, asks):
        # The data in units of 10**exponent, prices in their square (the
        # units of x * y); each point after the first warm-starts from the one
        # before, so fits reached from other starts than the baseline are drawn too.
        scale = 10.0**exponent
        roster = exact_fit_roster(seed) if exact_fit else default_market(seed)[1]
        if duplicate:  # P3 sells a copy of P4's series
            copied = next(series.values for series in roster if series.agent_id == "P4")
            roster = [dataclasses.replace(s, values=copied) if s.agent_id == "P3" else s for s in roster]
        if ahead:
            # P2 sells the buyer's series one hour ahead, so its lag 1 is the
            # target itself: the market fits exactly, and the change from the
            # baseline cancels the whole baseline loss.
            buyer = roster[0].values
            roster[1] = dataclasses.replace(roster[1], values=np.append(buyer[1:], 0.0))
        roster = [dataclasses.replace(series, values=series.values * scale) for series in roster]
        config = MarketConfig("P1", SUPPORTS, LAG)
        market = PreparedMarket(config, roster)
        A, y = raw_design(shifted(roster), config)  # the market's intercept is that of the shifted data
        start = None
        for ask in asks:
            outcome = market.clear(market.prices(ReservationSchedule(default=ask * scale**2)), start)
            beta = outcome.market_beta
            residual = y - A @ beta
            fresh = float(residual @ residual) / len(y)
            assert abs(outcome.market_mse - fresh) <= change_form_bound(A, y, beta, market.baseline_start)
            assert outcome.market_mse >= 0.0
            # The clearing's own verdict, read back from its outcome, is the public one.
            gap = outcome.market_mse + outcome.total_payments - market.baseline_mse
            assert (gap <= market.viability_slack) == verify_buyer_viability(outcome).holds
            start = beta

    @pytest.mark.parametrize("seed", range(8))
    def test_forged_coefficients_fail_the_public_check(self, seed):
        # The market side is recomputed from market_beta, not read from the
        # outcome: an intercept moved by 10 target standard deviations adds
        # about 100 variances to the loss.
        config, roster = default_market(seed=seed)
        outcome = clear_market(config, roster, ReservationSchedule(default=0.1))
        beta = outcome.market_beta.copy()
        beta[0] += 10.0 * np.std(outcome.market.target)
        check = verify_buyer_viability(dataclasses.replace(outcome, market_beta=beta))
        assert not check.holds
        assert check.market_mse > 50.0 * check.baseline_mse
        assert check.market_mse != outcome.market_mse

    def test_prepared_arrays_are_read_only(self):
        config, roster = default_market(seed=0)
        market = PreparedMarket(config, roster)
        for prepared in (market, market.window(120)):
            for array in (
                prepared.design_all.values,
                prepared.target,
                prepared.normal.gram,
                prepared.normal.moment,
                prepared.baseline_start,
                prepared.baseline_correlation,
            ):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1.0
        # The target is a read-only copy of the buyer's window; the series stays writable.
        buyer = roster[0]
        assert buyer.agent_id == "P1" and buyer.values.flags.writeable
        assert not np.shares_memory(market.target, buyer.values)

    def test_writing_the_buyer_series_after_preparing_leaves_the_market_as_prepared(self):
        # The normal equations and the baseline were computed from the target
        # when the market was prepared; a later write into the caller's
        # series must not reach the target they certify against.
        config, roster = default_market(seed=0)
        market = PreparedMarket(config, roster)
        prices = market.prices(ReservationSchedule(default=0.1))
        before = market.clear(prices)
        buyer = roster[0]
        buyer.values[buyer.start_time : buyer.start_time + LAG.window_length] *= 3.0
        after = market.clear(prices)
        assert after.market_beta.tobytes() == before.market_beta.tobytes()
        assert after.market_mse.hex() == before.market_mse.hex()
        assert after.payments.tobytes() == before.payments.tobytes()
