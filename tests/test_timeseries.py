import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regmarket import (
    AgentSeries,
    InvalidInputError,
    LagSpec,
    NormalEquations,
    SyntheticSpec,
    build_lag_matrix,
    ols_fit,
    synthetic_market_series,
)
from regmarket.timeseries import BURN_IN

from oracles import long_double_products


def series(agent_id, values, start_time=0):
    return AgentSeries(agent_id=agent_id, values=np.asarray(values, float), start_time=start_time)


class TestAgentSeries:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            series("A", [1.0, np.nan])

    def test_rejects_bad_start(self):
        with pytest.raises(InvalidInputError):
            series("A", [1.0, 2.0], start_time=5)

    def test_window_slice(self):
        s = series("A", [9.0, 1.0, 2.0, 3.0], start_time=1)
        assert np.array_equal(s.window(2), [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            s.window(4)


class TestBuildLagMatrix:
    def test_no_series_rejected(self):
        with pytest.raises(InvalidInputError, match="^need at least one agent series$"):
            build_lag_matrix([], LagSpec(max_lag=1, window_length=2))

    def test_single_agent_lag_one(self):
        s = series("A", [10.0, 11.0, 12.0], start_time=1)
        design = build_lag_matrix([s], LagSpec(max_lag=1, window_length=2))
        assert np.array_equal(design.values, [[1.0, 10.0], [1.0, 11.0]])
        assert design.column_map == (None, ("A", 1))

    def test_default_study_shape(self):
        roster = synthetic_market_series(SyntheticSpec(seed=0), history=3, window=240)
        design = build_lag_matrix(roster, LagSpec(max_lag=3, window_length=240))
        assert design.values.shape == (240, 16)
        assert len(design.column_map) == 16

    def test_two_agents_hand_layout(self):
        a = series("A", [1.0, 2.0, 3.0, 4.0, 5.0], start_time=2)
        b = series("B", [10.0, 20.0, 30.0, 40.0, 50.0], start_time=2)
        design = build_lag_matrix([a, b], LagSpec(max_lag=2, window_length=3))
        expected = np.array(
            [
                # 1, a[t-2], a[t-1], b[t-2], b[t-1] for window rows t = 1..3
                [1.0, 1.0, 2.0, 10.0, 20.0],
                [1.0, 2.0, 3.0, 20.0, 30.0],
                [1.0, 3.0, 4.0, 30.0, 40.0],
            ]
        )
        assert np.array_equal(design.values, expected)
        assert design.column_map == (None, ("A", 2), ("A", 1), ("B", 2), ("B", 1))

    def test_block_order_is_oldest_lag_first(self):
        s = series("A", np.arange(10.0), start_time=3)
        design = build_lag_matrix([s], LagSpec(max_lag=3, window_length=4))
        assert design.column_map == (None, ("A", 3), ("A", 2), ("A", 1))

    def test_insufficient_history_names_agent(self):
        s = series("farm-7", np.arange(10.0), start_time=1)
        with pytest.raises(InvalidInputError, match="farm-7"):
            build_lag_matrix([s], LagSpec(max_lag=3, window_length=2))

    def test_window_past_series_end_rejected(self):
        s = series("A", np.arange(5.0), start_time=2)
        with pytest.raises(InvalidInputError, match="missing 2"):
            build_lag_matrix([s], LagSpec(max_lag=2, window_length=5))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        max_lag=st.integers(1, 4),
        window=st.integers(1, 12),
        extra_history=st.integers(0, 3),
    )
    def test_lag_alignment(self, seed, max_lag, window, extra_history):
        rng = np.random.default_rng(seed)
        start = max_lag + extra_history
        roster = [
            series(f"A{k}", rng.normal(size=start + window + 2), start_time=start)
            for k in range(int(rng.integers(1, 4)))
        ]
        design = build_lag_matrix(roster, LagSpec(max_lag=max_lag, window_length=window))
        for _ in range(10):
            row = int(rng.integers(0, window))
            agent = roster[int(rng.integers(0, len(roster)))]
            lag = int(rng.integers(1, max_lag + 1))
            column = design.column_of(agent.agent_id, lag)
            assert design.values[row, column] == agent.values[start + row - lag]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_lag=st.integers(1, 4),
        window=st.integers(1, 12),
        margins=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
    )
    @example(seed=0, max_lag=1, window=1, margins=[(0, 0)])
    @example(seed=1, max_lag=1, window=7, margins=[(3, 0), (0, 2), (1, 1)])
    @example(seed=2, max_lag=4, window=1, margins=[(0, 3), (2, 0)])
    def test_whole_matrix_matches_per_entry_reference(self, seed, max_lag, window, margins):
        # Each series has its own extra history before the window and its
        # own extra samples after it, so its start_time and length differ.
        rng = np.random.default_rng(seed)
        roster = [
            series(f"A{k}", rng.normal(size=max_lag + before + window + after), start_time=max_lag + before)
            for k, (before, after) in enumerate(margins)
        ]
        design = build_lag_matrix(roster, LagSpec(max_lag=max_lag, window_length=window))

        expected = np.ones((window, 1 + len(roster) * max_lag))
        column_map = [None]
        for k, agent in enumerate(roster):
            for position in range(max_lag):  # oldest lag first
                lag = max_lag - position
                column_map.append((agent.agent_id, lag))
                for row in range(window):
                    expected[row, 1 + k * max_lag + position] = agent.values[agent.start_time + row - lag]
        assert design.values.shape == expected.shape
        assert design.values.tobytes() == expected.tobytes()
        assert design.column_map == tuple(column_map)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_agents=st.integers(1, 5),
        max_lag=st.integers(1, 6),
        window=st.integers(1, 300),
        spikes=st.integers(0, 3),
    )
    @example(seed=0, n_agents=1, max_lag=6, window=1, spikes=0)
    @example(seed=1, n_agents=3, max_lag=6, window=5, spikes=1)
    @example(seed=2, n_agents=2, max_lag=6, window=6, spikes=2)
    @example(seed=3, n_agents=5, max_lag=1, window=1, spikes=0)
    @example(seed=4, n_agents=4, max_lag=4, window=300, spikes=3)
    def test_lazy_values_and_normal_equations_match_references(self, seed, n_agents, max_lag, window, spikes):
        # Hours in units 1e-3 to 1e3, and some 1e8 times their neighbours, on every side of the window.
        rng = np.random.default_rng(seed)
        roster = []
        for k in range(n_agents):
            start = max_lag + int(rng.integers(0, 3))
            values = rng.normal(size=start + window + int(rng.integers(0, 3))) * 10.0 ** rng.uniform(-3, 3)
            values[rng.integers(0, values.size, size=spikes)] *= 1e8
            roster.append(series(f"A{k}", values, start_time=start))
        design = build_lag_matrix(roster, LagSpec(max_lag=max_lag, window_length=window))
        y = rng.normal(size=window)
        normal = NormalEquations(design, y)
        assert "values" not in vars(design)  # the normal equations come from the hours

        expected = np.ones((window, 1 + n_agents * max_lag))
        for k, agent in enumerate(roster):
            for position in range(max_lag):  # oldest lag first
                hours = agent.start_time - max_lag + position + np.arange(window)
                expected[:, 1 + k * max_lag + position] = agent.values[hours]
        assert design.values.tobytes() == expected.tobytes()
        assert design.values is design.values and not design.values.flags.writeable

        gram, moment, square = long_double_products(expected, y)
        # Each sum of T products is within T eps of the sum of its terms' magnitudes, which
        # Cauchy-Schwarz bounds by the product of the two columns' norms.
        bound = 4 * window * np.finfo(float).eps
        assert np.all(np.abs(normal.gram - gram) <= bound * np.sqrt(np.outer(np.diag(gram), np.diag(gram))))
        assert np.array_equal(normal.gram, normal.gram.T)
        assert np.all(np.abs(normal.moment - moment) <= bound * np.sqrt(np.diag(gram) * square))

    @pytest.mark.parametrize("window, n_agents, max_lag", [(1, 1, 1), (5, 1, 3), (7, 3, 1), (8760, 10, 9)])
    def test_feature_block_reshape_is_a_view(self, window, n_agents, max_lag):
        # build_lag_matrix writes the lag windows through this reshape of
        # the feature columns; it must be a view on every supported numpy,
        # not a copy the writes would be lost in.
        values = np.empty((window, 1 + n_agents * max_lag))
        block = values[:, 1:].reshape(window, n_agents, max_lag)
        assert np.shares_memory(block, values)
        block[...] = 2.0
        assert np.all(values[:, 1:] == 2.0)


def one_seller(phi, std, seed, cross=0.0, dependent_phi=0.2, dependent_std=0.3):
    """A spec with one seller, P2, and the buyer P1."""
    return SyntheticSpec(
        n_independent=1,
        ar_coefficients=(phi,),
        noise_std=(std,),
        cross_coefficients=(cross,),
        dependent_phi=dependent_phi,
        dependent_noise_std=dependent_std,
        seed=seed,
    )


def seller_path(phi, std, length, seed):
    """The values of P2, the one seller of ``one_seller(phi, std, seed)``."""
    return synthetic_market_series(one_seller(phi, std, seed), history=0, window=length)[1].values


def plain_recursion(phi, noise_std, length, seed, forcing=None):
    """The AR(1) recursion on numpy scalars, with ``forcing`` added after the burn-in."""
    eps = np.random.default_rng(seed).normal(0.0, noise_std, BURN_IN + length)
    out = np.empty(BURN_IN + length)
    state = 0.0
    for t in range(BURN_IN + length):
        state = phi * state + eps[t]
        if forcing is not None and t >= BURN_IN:
            state += forcing[t - BURN_IN]
        out[t] = state
    return out[BURN_IN:]


# The generator scans the recursion in log2(N) vector passes, which sums the
# loop's terms in another order: each series may differ from the loop by
# rounding, at most this much times the series' largest magnitude.
SCAN_BOUND = 1e-12


def assert_equal_to_rounding(values, expected):
    assert values.shape == expected.shape
    assert np.max(np.abs(values - expected)) <= SCAN_BOUND * np.max(np.abs(expected))


def plain_roster(spec, length):
    """Every series of ``spec``'s roster, P1 first, by :func:`plain_recursion`.

    Seeds are spawned as the generator states: the first child for P1 and
    child ``k + 1`` for seller ``k``; P1's forcing sums the sellers'
    previous hours in seller order.
    """
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_independent + 1)
    sellers = [
        plain_recursion(phi, std, length, child)
        for phi, std, child in zip(spec.ar_coefficients, spec.noise_std, children[1:])
    ]
    forcing = np.zeros(length)
    for c, seller in zip(spec.cross_coefficients, sellers):
        forcing[1:] += c * seller[:-1]
    buyer = plain_recursion(spec.dependent_phi, spec.dependent_noise_std, length, children[0], forcing)
    return [buyer, *sellers]


class TestGenerateAr1:
    """The sellers are AR(1) processes; each case reads P2 of a one-seller spec."""

    def test_white_noise_has_no_autocorrelation(self):
        x = seller_path(0.0, 1.0, 10_000, seed=5)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) < 0.1

    def test_autocorrelation_matches_phi(self):
        x = seller_path(0.7, 1.0, 10_000, seed=6)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1 - 0.7) < 0.05

    def test_deterministic_given_seed(self):
        a = seller_path(0.4, 1.5, 500, seed=42)
        b = seller_path(0.4, 1.5, 500, seed=42)
        assert np.array_equal(a, b)
        c = seller_path(0.4, 1.5, 500, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("phi,std", [(0.7, 1.0), (0.3, 2.0), (-0.5, 0.5)])
    def test_stationary_moments(self, phi, std):
        x = seller_path(phi, std, 20_000, seed=9)
        target_var = std**2 / (1 - phi**2)
        assert abs(x.mean()) < 0.1 * np.sqrt(target_var)
        assert abs(x.var() - target_var) < 0.1 * target_var

    def test_non_stationary_rejected(self):
        with pytest.raises(InvalidInputError):
            one_seller(1.0, 1.0, seed=0)
        with pytest.raises(InvalidInputError):
            one_seller(-1.2, 1.0, seed=0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidInputError):
            one_seller(0.5, 0.0, seed=0)
        with pytest.raises(InvalidInputError):
            synthetic_market_series(one_seller(0.5, 1.0, seed=0), history=0, window=0)


class TestGenerateVarDependent:
    """P1 loads on its own lag and on every seller's previous hour."""

    def test_zero_cross_reduces_to_ar1(self):
        def buyer(ar_coefficients, noise_std):
            spec = SyntheticSpec(
                n_independent=3,
                ar_coefficients=ar_coefficients,
                noise_std=noise_std,
                cross_coefficients=(0.0, 0.0, 0.0),
                dependent_phi=0.35,
                dependent_noise_std=0.8,
                seed=77,
            )
            return synthetic_market_series(spec, history=0, window=300)[0].values

        plain = buyer((0.5, 0.5, 0.5), (1.0, 1.0, 1.0))
        assert np.array_equal(buyer((0.9, -0.3, 0.0), (2.0, 0.1, 1.0)), plain)
        first_child = np.random.SeedSequence(77).spawn(4)[0]
        assert_equal_to_rounding(plain, plain_recursion(0.35, 0.8, 300, first_child))

    def test_recovers_generative_coefficients(self):
        spec = SyntheticSpec(seed=21)
        roster = synthetic_market_series(spec, history=1, window=10_000)
        design = build_lag_matrix(roster, LagSpec(max_lag=1, window_length=10_000))
        beta = ols_fit(design, roster[0].window(10_000))
        expected = {("P1", 1): spec.dependent_phi}
        for agent, coefficient in zip(spec.agent_ids[1:], spec.cross_coefficients):
            expected[(agent, 1)] = coefficient
        for (agent, lag), value in expected.items():
            assert abs(beta[design.column_of(agent, lag)] - value) < 0.05

    def test_noiseless_single_driver_is_shifted_copy(self):
        spec = one_seller(0.6, 1.0, seed=3, cross=1.0, dependent_phi=0.0, dependent_std=1e-12)
        buyer, seller = synthetic_market_series(spec, history=0, window=200)
        assert np.allclose(buyer.values[1:], seller.values[:-1], atol=1e-9)

    def test_coefficient_count_mismatch_rejected(self):
        with pytest.raises(InvalidInputError) as caught:
            SyntheticSpec(
                n_independent=1, ar_coefficients=(0.5,), noise_std=(1.0,), cross_coefficients=(0.1, 0.2)
            )
        assert caught.value.field == "cross_coefficients"


class TestSyntheticSpec:
    def test_defaults_are_consistent(self):
        spec = SyntheticSpec()
        assert spec.agent_ids == ("P1", "P2", "P3", "P4", "P5")

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(n_independent=3)

    @pytest.mark.parametrize("target", ["P1", "P3"])
    def test_coefficient_recovered_by_ols(self, target):
        spec = SyntheticSpec(seed=13)
        roster = synthetic_market_series(spec, history=2, window=20_000)
        design = build_lag_matrix(roster, LagSpec(max_lag=2, window_length=20_000))
        y = roster[spec.agent_ids.index(target)].window(20_000)
        beta = ols_fit(design, y)
        for j, agent, lag in design.feature_columns():
            assert abs(beta[j] - spec.coefficient(target, agent, lag)) < 0.05, (agent, lag)
        assert spec.coefficient(target, target, 1) == (0.2 if target == "P1" else 0.3)

    def test_non_stationary_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(
                n_independent=1, ar_coefficients=(1.0,), noise_std=(1.0,), cross_coefficients=(0.1,)
            )


class TestSyntheticMarketSeries:
    def test_roster_layout(self):
        roster = synthetic_market_series(SyntheticSpec(seed=1), history=3, window=100)
        assert [s.agent_id for s in roster] == ["P1", "P2", "P3", "P4", "P5"]
        assert all(s.values.shape == (103,) for s in roster)
        assert all(s.start_time == 3 for s in roster)

    def test_reproducible(self):
        for history, window in ((2, 50), (6, 8760)):
            a = synthetic_market_series(SyntheticSpec(seed=8), history=history, window=window)
            b = synthetic_market_series(SyntheticSpec(seed=8), history=history, window=window)
            for left, right in zip(a, b):
                assert left.values.tobytes() == right.values.tobytes()
            c = synthetic_market_series(SyntheticSpec(seed=9), history=history, window=window)
            assert not np.array_equal(a[0].values, c[0].values)

    def test_peak_memory_stays_near_one_roster(self):
        # The noise is drawn into one array and scanned in place, one row at a
        # time, so the peak is that array plus a row-long temporary: not a list
        # of draws beside their stacked copy, nor a pass's product over every
        # seller's row.
        n, history, window = 14, 6, 8760
        spec = SyntheticSpec(
            n_independent=n, ar_coefficients=(0.5,) * n, noise_std=(1.0,) * n, cross_coefficients=(0.05,) * n
        )
        synthetic_market_series(spec, history=history, window=1)  # leaves numpy's one-off allocations out
        tracemalloc.start()
        try:
            synthetic_market_series(spec, history=history, window=window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (n + 1) * (BURN_IN + history + window) * 8

    def test_replacing_start_time_keeps_values(self):
        roster = synthetic_market_series(SyntheticSpec(seed=8), history=4, window=30)
        rewrapped = dataclasses.replace(roster[0], start_time=6)
        assert np.array_equal(rewrapped.values, roster[0].values)


class TestGeneratorsMatchPlainLoop:
    """Every series of a roster equals the numpy-scalar recursion it states, to ``SCAN_BOUND``."""

    @staticmethod
    def assert_matches_plain_loop(spec, history, window):
        roster = synthetic_market_series(spec, history=history, window=window)
        expected = plain_roster(spec, history + window)
        assert [s.agent_id for s in roster] == list(spec.agent_ids)
        for series, values in zip(roster, expected):
            assert series.start_time == history
            assert_equal_to_rounding(series.values, values)

    def test_ar1(self):
        for phi, std, seed in ((0.95, 1.0, 0), (-0.4, 0.3, 7), (0.0, 2.0, 11)):
            self.assert_matches_plain_loop(one_seller(phi, std, seed), history=2, window=498)

    def test_paper_scale_persistent_negative_and_white(self):
        spec = SyntheticSpec(
            n_independent=3,
            ar_coefficients=(0.9999, -0.4, 0.0),
            noise_std=(1.0, 0.5, 2.0),
            cross_coefficients=(0.3, -0.2, 0.1),
            dependent_phi=0.3,
            dependent_noise_std=0.5,
            seed=4,
        )
        self.assert_matches_plain_loop(spec, history=6, window=8760)

    def test_var_dependent(self):
        spec = SyntheticSpec(
            n_independent=3,
            ar_coefficients=(0.6, 0.9, 0.3),
            noise_std=(1.0, 1.0, 1.0),
            cross_coefficients=(0.5, -0.2, 0.1),
            dependent_phi=0.3,
            dependent_noise_std=0.5,
            seed=5,
        )
        self.assert_matches_plain_loop(spec, history=3, window=397)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        history=st.integers(0, 4),
        window=st.integers(1, 60),
    )
    def test_random_specs(self, data, n, seed, history, window):
        phi = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)
        std = st.floats(1e-3, 10.0)
        cross = st.floats(-2.0, 2.0)
        spec = SyntheticSpec(
            n_independent=n,
            ar_coefficients=tuple(data.draw(st.lists(phi, min_size=n, max_size=n))),
            noise_std=tuple(data.draw(st.lists(std, min_size=n, max_size=n))),
            cross_coefficients=tuple(data.draw(st.lists(cross, min_size=n, max_size=n))),
            dependent_phi=data.draw(phi),
            dependent_noise_std=data.draw(std),
            seed=seed,
        )
        self.assert_matches_plain_loop(spec, history, window)
