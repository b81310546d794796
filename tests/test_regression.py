import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import (
    AgentSeries,
    ConvergenceError,
    DesignMatrix,
    InvalidInputError,
    LagSpec,
    SolverSettings,
    SyntheticSpec,
    build_lag_matrix,
    kkt_violation,
    mse,
    ols_fit,
    synthetic_market_series,
    weighted_lasso_fit,
)
from regmarket.regression import _row_sums

from conftest import COLLINEAR, make_design, random_instance, with_collinear_columns
from oracles import (
    column_kkt_bound,
    column_kkt_residual,
    in_column_units,
    kkt_residual,
    kkt_violations,
    normal_equation_ols,
    penalized_objective,
    prox_gradient_lasso,
    univariate_lasso,
)


class TestDesignMatrix:
    def test_intercept_must_be_ones(self):
        values = np.array([[2.0, 1.0], [2.0, 3.0]])
        with pytest.raises(InvalidInputError):
            DesignMatrix(values, (None, ("A", 1)))

    @pytest.mark.parametrize(
        "column_map",
        [(("A", 1), ("A", 2)), (("A", 1), None), (None, None)],
        ids=["no-intercept", "intercept-last", "two-intercepts"],
    )
    def test_column_0_must_be_the_intercept(self, column_map):
        with pytest.raises(InvalidInputError) as caught:
            DesignMatrix(np.ones((3, 2)), column_map)
        assert caught.value.field == "column_map"

    def test_column_map_of_another_length_rejected(self):
        with pytest.raises(InvalidInputError, match="^column_map has 1 entries for 2 columns$") as err:
            DesignMatrix(np.ones((3, 2)), (None,))
        assert err.value.field == "column_map"

    def test_duplicate_feature_rejected(self):
        values = np.ones((3, 3))
        with pytest.raises(InvalidInputError, match="^column_map gives agent 'A' lag 1 more than one column$"):
            DesignMatrix(values, (None, ("A", 1), ("A", 1)))
        series = AgentSeries("A", np.arange(6.0), start_time=2)
        with pytest.raises(InvalidInputError, match="^column_map gives agent 'A' lag 2 more than one column$"):
            build_lag_matrix([series, series], LagSpec(max_lag=2, window_length=3))

    def test_non_finite_rejected(self):
        values = np.array([[1.0, np.nan], [1.0, 2.0]])
        with pytest.raises(InvalidInputError):
            DesignMatrix(values, (None, ("A", 1)))

    @pytest.mark.parametrize("rows", [1, 3, 240])
    @pytest.mark.parametrize("cols", [1, 2, 16])
    @pytest.mark.parametrize("layout", ["C", "F", "column-slice", "row-strided"])
    def test_given_matrix_runs_on_the_one_path(self, rng, rows, cols, layout):
        # A matrix given directly is a max_lag-1 design over a view of it: its
        # Gram core is the very product values.T @ values, and there are no edge hours.
        wide = rng.normal(size=(2 * rows, 2 * cols))
        wide[:, 0] = 1.0
        values = {
            "C": np.ascontiguousarray(wide[:rows, :cols]),
            "F": np.asfortranarray(wide[:rows, :cols]),
            "column-slice": wide[:rows, :cols],
            "row-strided": wide[::2, :cols],
        }[layout]
        y = rng.normal(size=rows)
        design = DesignMatrix(values, (None, *(("A", j) for j in range(1, cols))))
        assert design.values is not values and design.values.tobytes() == values.tobytes()
        assert not design.values.flags.writeable and design.max_lag == 1
        assert np.array_equal(design.gram(), values.T @ values)
        assert np.array_equal(design.moment(y), _row_sums(values, y))
        keep_rows, keep_cols = max(1, rows // 2), 1 + (cols - 1) // 2
        part = design.prefix(rows=keep_rows, agents=keep_cols - 1)
        assert np.array_equal(part.values, values[:keep_rows, :keep_cols])
        assert part.column_map == design.column_map[:keep_cols]

    @pytest.mark.parametrize("given", [False, True])
    def test_design_cannot_be_written(self, given):
        design = build_lag_matrix(synthetic_market_series(SyntheticSpec(seed=0), 3, 24), LagSpec(3, 24))
        if given:
            values = np.array(design.values)
            design = DesignMatrix(values, design.column_map)
        for name in ("history", "max_lag", "values"):
            with pytest.raises(AttributeError, match=f"^DesignMatrix is read-only; cannot set '{name}'$"):
                setattr(design, name, None)
        for array in (design.history, design.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 1] = 9.0
        if given:
            assert design.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "cut, field",
        [({"rows": 10**6}, "rows"), ({"rows": -1}, "rows"), ({"rows": 0}, "rows"),
         ({"agents": 99}, "agents"), ({"rows": 2.5}, "rows")],
    )
    def test_prefix_rejects_a_cut_outside_the_design(self, cut, field):
        design = build_lag_matrix(synthetic_market_series(SyntheticSpec(seed=0), 3, 240), LagSpec(3, 240))
        with pytest.raises(InvalidInputError, match=f"^{field} must be ") as caught:
            design.prefix(**cut)
        assert caught.value.field == field

    def test_repr_equality_and_hash_read_no_values(self):
        series = synthetic_market_series(SyntheticSpec(seed=1), 3, 20)
        design, again = (build_lag_matrix(series, LagSpec(max_lag=3, window_length=20)) for _ in range(2))
        text = repr(design)
        assert "values" not in vars(design)
        assert "n_rows=20, n_cols=16, max_lag=3" in text and "('P5', 1)" in text
        assert design == design and design != again
        assert len({design, again}) == 2
        assert "values" not in vars(design)

    def test_column_lookup(self, rng):
        design = make_design(rng, 5, 3)
        assert design.column_of("A", 2) == 2
        with pytest.raises(InvalidInputError):
            design.column_of("B", 1)


class TestOlsFit:
    def test_exact_linear_data(self):
        x = np.array([1.0, 2.0, 3.0])
        design = DesignMatrix(np.column_stack([np.ones(3), x]), (None, ("A", 1)))
        beta = ols_fit(design, np.array([2.0, 4.0, 6.0]))
        assert np.allclose(beta, [0.0, 2.0], atol=1e-12)

    def test_intercept_only_is_mean(self):
        design = DesignMatrix(np.ones((2, 1)), (None,))
        beta = ols_fit(design, np.array([3.0, 5.0]))
        assert np.allclose(beta, [4.0], atol=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        design = make_design(rng, 50, 3)
        truth = np.array([0.5, -1.0, 2.0, 0.3])
        y = design.values @ truth + 0.05 * rng.normal(size=50)
        expected = normal_equation_ols(design.values, y)
        assert np.max(np.abs(ols_fit(design, y) - expected)) < 1e-8

    def test_rank_deficient_gives_minimum_norm(self, rng):
        base = rng.normal(size=6)
        values = np.column_stack([np.ones(6), base, base])  # duplicated column
        design = DesignMatrix(values, (None, ("A", 1), ("A", 2)))
        y = rng.normal(size=6)
        beta = ols_fit(design, y)
        # Residual orthogonal to the column space, and norm no larger than
        # any other solution of the normal equations.
        assert np.max(np.abs(values.T @ (y - values @ beta))) < 1e-9
        pinv_beta = np.linalg.pinv(values) @ y
        assert np.linalg.norm(beta) <= np.linalg.norm(pinv_beta) + 1e-9
        assert np.allclose(beta, pinv_beta, atol=1e-9)

    def test_dimension_mismatch_rejected(self, rng):
        design = make_design(rng, 10, 2)
        with pytest.raises(InvalidInputError):
            ols_fit(design, np.zeros(9))

    def test_non_finite_target_rejected(self, rng):
        design = make_design(rng, 4, 1)
        with pytest.raises(InvalidInputError):
            ols_fit(design, np.array([1.0, 2.0, np.inf, 0.0]))


class TestSoftThreshold:
    """The solver's coordinate update on one centred feature.

    With rows (1, 1) and (1, -1) and target (v/2, -v/2) the intercept is 0,
    x'y = v and G_11 = 2, so the cleared coefficient is S(v, t) / 2 with S
    the soft-threshold.
    """

    @staticmethod
    def shrink(value, threshold):
        design = DesignMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]), (None, ("A", 1)))
        y = np.array([value / 2, -value / 2])
        return 2.0 * weighted_lasso_fit(design, y, np.array([0.0, threshold]))[1]

    def test_basic_cases(self):
        assert self.shrink(5.0, 2.0) == 3.0
        assert self.shrink(-5.0, 2.0) == -3.0
        assert self.shrink(1.5, 2.0) == 0.0

    def test_exactly_at_threshold_returns_zero(self):
        assert self.shrink(2.0, 2.0) == 0.0
        assert self.shrink(-2.0, 2.0) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_shrinks_toward_zero(self, value, threshold):
        out = self.shrink(value, threshold)
        assert abs(out) <= abs(value)
        assert out * value >= 0.0


class TestWeightedLassoFit:
    def test_zero_penalty_matches_ols(self, rng):
        limit = 10 * SolverSettings().tolerance
        for _ in range(5):
            design = make_design(rng, 40, 4)
            y = rng.normal(size=40)
            beta_ols = ols_fit(design, y)
            beta_lasso = weighted_lasso_fit(design, y, np.zeros(5))
            assert np.max(np.abs(beta_lasso - beta_ols)) < limit

    def test_full_shrinkage_leaves_intercept_mean(self, rng):
        design = make_design(rng, 30, 3)
        y = rng.normal(size=30) + 2.0
        big = np.abs(design.values.T @ y) * 10.0
        big[0] = 0.0
        beta = weighted_lasso_fit(design, y, big)
        assert np.all(beta[1:] == 0.0)
        assert abs(beta[0] - y.mean()) < 1e-9

    def test_univariate_closed_form(self, rng):
        x = rng.normal(size=25)
        x -= x.mean()
        y = 1.5 * x + rng.normal(size=25)
        y -= y.mean()
        design = DesignMatrix(np.column_stack([np.ones(25), x]), (None, ("A", 1)))
        for lam in (0.5, 3.0, 10.0):
            beta = weighted_lasso_fit(design, y, np.array([0.0, lam]))
            assert abs(beta[1] - univariate_lasso(x, y, lam)) < 1e-10

    def test_exactly_at_threshold_coefficient_is_zero(self):
        # Centered single feature whose correlation with y equals the penalty.
        x = np.array([1.0, -1.0, 2.0, -2.0])
        y = np.array([0.5, -0.5, 1.0, -1.0])  # x @ y = 5.0
        design = DesignMatrix(np.column_stack([np.ones(4), x]), (None, ("A", 1)))
        beta = weighted_lasso_fit(design, y, np.array([0.0, 5.0]))
        assert beta[1] == 0.0

    def test_objective_not_above_prox_oracle(self, rng):
        design, y, penalties = random_instance(rng, 20, 3)
        beta = weighted_lasso_fit(design, y, penalties)
        oracle = prox_gradient_lasso(design.values, y, penalties)
        ours = penalized_objective(design.values, y, penalties, beta)
        theirs = penalized_objective(design.values, y, penalties, oracle)
        assert ours <= theirs + 1e-8

    def test_penalty_validation(self, rng):
        design = make_design(rng, 10, 2)
        y = rng.normal(size=10)
        with pytest.raises(InvalidInputError):
            weighted_lasso_fit(design, y, np.array([0.5, 1.0, 1.0]))  # intercept penalized
        with pytest.raises(InvalidInputError):
            weighted_lasso_fit(design, y, np.array([0.0, -1.0, 1.0]))
        with pytest.raises(InvalidInputError):
            weighted_lasso_fit(design, y, np.zeros(4))

    def test_non_convergence_carries_last_iterate(self, rng):
        design = make_design(rng, 30, 4)
        y = rng.normal(size=30)
        # A tolerance below the certificate's own rounding: no iterate can certify.
        settings = SolverSettings(tolerance=1e-20, max_iterations=1)
        with pytest.raises(ConvergenceError) as excinfo:
            weighted_lasso_fit(design, y, np.zeros(5), settings)
        err = excinfo.value
        assert err.last_beta is not None and err.last_beta.shape == (5,)

    def test_non_convergence_reports_the_measured_residual(self):
        # One sweep leaves the iterate far from the optimum, so the residual
        # reported (column units, from a fresh residual) is far above the
        # bound and far from the gradient-unit one (0.149 here).
        A, y, penalties = correlated_problem(np.random.default_rng(12), 12, 5)
        settings = SolverSettings(tolerance=1e-12, max_iterations=1)
        with pytest.raises(ConvergenceError) as excinfo:
            weighted_lasso_fit(one_agent_design(A), y, penalties, settings)
        err = excinfo.value
        expected = column_kkt_residual(A, y, penalties, err.last_beta)
        assert abs(err.kkt_residual - expected) <= 1e-12 * expected
        assert err.kkt_residual > column_kkt_bound(A, y, settings.tolerance)
        assert "inf" not in str(err)
        assert f"optimality residual {err.kkt_residual:.3e}" in str(err)

    def test_objective_descends_across_sweeps(self):
        # Correlated columns so the solve needs several sweeps; truncated runs
        # expose the iterate after each sweep through the convergence error.
        rng = np.random.default_rng(11)
        base = rng.normal(size=40)
        values = np.column_stack(
            [
                np.ones(40),
                base + 0.1 * rng.normal(size=40),
                base + 0.1 * rng.normal(size=40),
                rng.normal(size=40),
            ]
        )
        design = DesignMatrix(values, (None, ("A", 1), ("A", 2), ("A", 3)))
        y = values @ np.array([0.5, 1.0, -1.0, 0.3]) + 0.1 * rng.normal(size=40)
        penalties = np.array([0.0, 2.0, 2.0, 2.0])

        objectives = []
        for sweeps in range(1, 9):
            try:
                beta = weighted_lasso_fit(
                    design, y, penalties, SolverSettings(tolerance=1e-15, max_iterations=sweeps)
                )
            except ConvergenceError as err:
                beta = err.last_beta
            objectives.append(penalized_objective(values, y, penalties, beta))
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_monotone_objective_under_penalty_domination(self, rng):
        design, y, penalties = random_instance(rng, 25, 3)
        heavier = penalties + np.concatenate([[0.0], rng.uniform(0.0, 5.0, 3)])
        value_light = penalized_objective(
            design.values, y, penalties, weighted_lasso_fit(design, y, penalties)
        )
        value_heavy = penalized_objective(
            design.values, y, heavier, weighted_lasso_fit(design, y, heavier)
        )
        assert value_heavy >= value_light - 1e-12

    def test_intercept_immunity_zero_mean_residuals(self, rng):
        design, y, penalties = random_instance(rng, 30, 4)
        beta = weighted_lasso_fit(design, y, penalties)
        residual = y - design.values @ beta
        assert abs(residual.mean()) < 1e-8

    def test_constant_penalized_column_gets_zero(self, rng):
        values = np.column_stack([np.ones(20), np.full(20, 3.0), rng.normal(size=20)])
        design = DesignMatrix(values, (None, ("A", 1), ("A", 2)))
        y = rng.normal(size=20)
        beta = weighted_lasso_fit(design, y, np.array([0.0, 1.0, 0.5]))
        assert beta[1] == 0.0

    def test_constant_unpenalized_column_converges(self, rng):
        # Exactly collinear with the intercept: the fit must still terminate
        # with a stationary solution rather than cycling.
        values = np.column_stack([np.ones(20), np.full(20, 3.0), rng.normal(size=20)])
        design = DesignMatrix(values, (None, ("A", 1), ("A", 2)))
        y = rng.normal(size=20)
        beta = weighted_lasso_fit(design, y, np.zeros(3))
        residual = y - values @ beta
        assert np.max(np.abs(values.T @ residual)) < 1e-6

    def test_all_zero_column_keeps_zero_weight(self, rng):
        values = np.column_stack([np.ones(15), np.zeros(15), rng.normal(size=15)])
        design = DesignMatrix(values, (None, ("A", 1), ("A", 2)))
        y = rng.normal(size=15)
        beta = weighted_lasso_fit(design, y, np.array([0.0, 0.5, 0.5]))
        assert beta[1] == 0.0

    @pytest.mark.parametrize("penalty", [0.0, 1e-300, 0.5])
    def test_column_whose_squares_underflow_stays_at_zero(self, rng, penalty):
        # G_jj is 0 but X_j'y is not, so the sweep must leave b_j at 0 without dividing by G_jj.
        kept = np.column_stack([np.ones(30), rng.normal(size=30)])
        values = np.column_stack([kept, 1e-170 * rng.normal(size=30)])
        y = 1e10 * rng.normal(size=30)
        beta = weighted_lasso_fit(DesignMatrix(values, (None, ("A", 1), ("B", 1))), y, np.array([0.0, 1.0, penalty]))
        assert beta[2] == 0.0
        alone = weighted_lasso_fit(DesignMatrix(kept, (None, ("A", 1))), y, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(beta[:2], alone)

    @pytest.mark.parametrize("centered", [False, True], ids=["start-at-the-optimum", "one-sweep-certifies"])
    def test_warm_start_on_an_all_zero_column_is_cleared(self, centered):
        # Neither the sweep nor the certificate weighs an all-zero column, so
        # a nonzero start entry there came back unchanged: in the first case
        # with objective 0.610 where the optimum's is 0.010, and violation 0.2.
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = 0.5 * x + 0.1 * rng.normal(size=50)
        if centered:  # orthogonal to the intercept, so the first sweep lands on the optimum
            x -= x.mean()
        values = np.column_stack([np.ones(50), x, np.zeros(50)])
        design = DesignMatrix(values, (None, ("A", 1), ("B", 1)))
        penalties = np.array([0.0, 0.0, 5.0])
        cold = weighted_lasso_fit(design, y, penalties)
        start = np.array([0.0, 0.5, 3.0]) if centered else cold + [0.0, 0.0, 3.0]
        beta = weighted_lasso_fit(design, y, penalties, start=start)
        assert beta[2] == 0.0
        assert start[2] == 3.0  # the caller's start is not written
        assert penalized_objective(values, y, penalties, beta) == pytest.approx(
            penalized_objective(values, y, penalties, cold), rel=1e-12
        )
        assert kkt_violation(design, y, penalties, beta) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(8, 25),
        n_features=st.integers(1, 4),
    )
    def test_kkt_certificate_holds(self, seed, n_rows, n_features):
        rng = np.random.default_rng(seed)
        design, y, penalties = random_instance(rng, n_rows, n_features)
        beta = weighted_lasso_fit(design, y, penalties)
        tolerance = SolverSettings().tolerance
        # Independent recomputation, not the solver's own bookkeeping.
        assert kkt_residual(design.values, y, penalties, beta) <= 10 * tolerance
        assert kkt_violation(design, y, penalties, beta) <= 10 * tolerance

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_prox_oracle_equivalence_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(5, 31))
        n_features = int(rng.integers(1, 4))  # plus intercept: P <= 4
        design, y, penalties = random_instance(rng, n_rows, n_features)
        beta = weighted_lasso_fit(design, y, penalties)
        oracle = prox_gradient_lasso(design.values, y, penalties)
        gap = penalized_objective(design.values, y, penalties, beta) - penalized_objective(
            design.values, y, penalties, oracle
        )
        assert abs(gap) <= 1e-8


def persistent_lag_market(seed=0, n_agents=5, max_lag=6, window=300, phi=0.95):
    """Lag design of AR(phi) series, target loading on the sellers' lag 1.

    Neighbouring lags of a persistent series are strongly collinear, so the
    sign pattern of the solution settles only after many sweeps and the
    solver's exact sign-pattern steps are both rejected and accepted.
    """
    rng = np.random.default_rng(seed)
    burn_in = 200
    length = burn_in + max_lag + window
    roster = []
    for k in range(n_agents):
        values = np.zeros(length)
        for t in range(1, length):
            values[t] = phi * values[t - 1] + rng.normal()
        roster.append(AgentSeries(f"A{k}", values[burn_in:], start_time=max_lag))
    design = build_lag_matrix(roster, LagSpec(max_lag=max_lag, window_length=window))
    target = roster[0].window(window) + 0.5 * sum(
        series.values[max_lag - 1 : max_lag - 1 + window] for series in roster[1:]
    )
    sellers = np.array([entry is not None and entry[0] != "A0" for entry in design.column_map])
    return design, target, sellers


class TestPersistentLagDesign:
    def test_matches_oracles(self):
        design, y, sellers = persistent_lag_market()
        tolerance = SolverSettings().tolerance
        free = np.zeros(design.n_cols)
        beta = weighted_lasso_fit(design, y, free)
        assert np.max(np.abs(beta - normal_equation_ols(design.values, y))) < 1e-8
        assert kkt_residual(design.values, y, free, beta) <= 10 * tolerance
        for u in (0.05, 1.0):
            penalties = np.where(sellers, (design.n_rows / 2.0) * u, 0.0)
            beta = weighted_lasso_fit(design, y, penalties)
            oracle = prox_gradient_lasso(design.values, y, penalties)
            ours = penalized_objective(design.values, y, penalties, beta)
            theirs = penalized_objective(design.values, y, penalties, oracle)
            assert ours <= theirs + 1e-10
            assert kkt_residual(design.values, y, penalties, beta) <= 10 * tolerance
            assert 0 < np.count_nonzero(beta[sellers]) < np.count_nonzero(sellers)

    def test_collinear_unpenalized_column_falls_back_to_sweeps(self):
        # A constant column is collinear with the intercept, so the exact
        # step's system is singular even though its Cholesky factor exists;
        # no penalty lies in its null space, so the step is the minimum-norm one.
        design, y, sellers = persistent_lag_market()
        values = np.column_stack([design.values, np.full(design.n_rows, 3.0)])
        widened = DesignMatrix(values, design.column_map + (("const", 1),))
        bound = column_kkt_bound(values, y, SolverSettings().tolerance)
        for u in (0.0, 1.0):
            penalties = np.where(sellers, (design.n_rows / 2.0) * u, 0.0)
            wide_penalties = np.append(penalties, 0.0)
            beta = weighted_lasso_fit(widened, y, wide_penalties)
            assert column_kkt_residual(values, y, wide_penalties, beta) <= bound
            narrow = weighted_lasso_fit(design, y, penalties)
            assert penalized_objective(values, y, wide_penalties, beta) == pytest.approx(
                penalized_objective(design.values, y, penalties, narrow), rel=1e-12
            )

    def test_objective_descends_across_exact_steps(self):
        # Truncated solves expose the iterate after each sweep and the exact
        # active-set step that follows it. At this penalty the full step
        # would flip sellers' signs, so it is cut where each reaches zero.
        design, y, sellers = persistent_lag_market()
        penalties = np.where(sellers, (design.n_rows / 2.0) * 10.0, 0.0)
        objectives = []
        for sweeps in range(1, 16):
            try:
                beta = weighted_lasso_fit(
                    design, y, penalties, SolverSettings(tolerance=1e-15, max_iterations=sweeps)
                )
            except ConvergenceError as err:
                beta = err.last_beta
            objectives.append(penalized_objective(design.values, y, penalties, beta))
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] < objectives[0]


def step_safety_design(kind):
    """Persistent lag design, bare or widened by a collinear column.

    ``duplicate`` appends a copy of a seller's lag-1 column at a tenth of
    its penalty, so the active Gram block is singular and the optimum moves
    the weight onto the cheaper copy; ``constant`` appends an unpenalized
    constant column, collinear with the intercept.
    """
    design, y, sellers = persistent_lag_market()
    penalties = np.where(sellers, (design.n_rows / 2.0) * 0.05, 0.0)
    values = design.values
    if kind == "duplicate":
        column = design.column_of("A1", 1)
        values = np.column_stack([values, values[:, column]])
        penalties = np.append(penalties, 0.1 * penalties[column])
    elif kind == "constant":
        values = np.column_stack([values, np.full(design.n_rows, 3.0)])
        penalties = np.append(penalties, 0.0)
    column_map = design.column_map + ((("extra", 1),) if kind != "persistent" else ())
    return DesignMatrix(values, column_map), y, penalties


class TestStepSafety:
    """Every sweep and exact step keeps the objective from rising.

    Checked from the outside: truncated solves expose the iterate after k
    sweeps (and the step that follows each), and the objective is
    recomputed from raw arrays by the oracle.
    """

    @pytest.mark.parametrize("kind", ["persistent", "duplicate", "constant"])
    def test_truncated_solves_never_raise_the_objective(self, kind):
        design, y, penalties = step_safety_design(kind)
        objectives = []
        for sweeps in range(1, 13):
            try:
                beta = weighted_lasso_fit(
                    design, y, penalties, SolverSettings(tolerance=1e-15, max_iterations=sweeps)
                )
            except ConvergenceError as err:
                beta = err.last_beta
            objectives.append(penalized_objective(design.values, y, penalties, beta))
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] < objectives[0]
        beta = weighted_lasso_fit(design, y, penalties)
        bound = column_kkt_bound(design.values, y, SolverSettings().tolerance)
        assert column_kkt_residual(design.values, y, penalties, beta) <= bound

    def test_too_few_sweeps_still_raise(self):
        design, y, penalties = step_safety_design("persistent")
        needed = None
        for sweeps in range(1, 50):
            try:
                weighted_lasso_fit(design, y, penalties, SolverSettings(max_iterations=sweeps))
            except ConvergenceError:
                continue
            needed = sweeps
            break
        assert needed is not None and needed > 1
        with pytest.raises(ConvergenceError) as caught:
            weighted_lasso_fit(design, y, penalties, SolverSettings(max_iterations=needed - 1))
        assert caught.value.last_beta.shape == (design.n_cols,)


def certificate_allowance(A, y, beta):
    """Rounding allowed between the solver's certificate and a fresh-residual one, in gradient units.

    The solver certifies from c - G b and the oracle from X'(y - X b). Each
    is a sum of T products followed by a sum of P terms, so each is within
    (T + P) eps |X_j|'(|y| + |X||b|) of the exact correlation (Higham's
    gamma_n bound on a dot product); twice that covers both. On 3,000
    random fits like those below, the two differed by at most 3.2% of it.
    """
    T, P = A.shape
    scale = np.abs(A).T @ (np.abs(y) + np.abs(A) @ np.abs(beta))
    return (2.0 / T) * 2 * (T + P) * np.finfo(float).eps * float(np.max(scale))


class TestCertificateAtAnyScale:
    """Every returned fit passes the KKT check from a fresh residual: the solver's bound plus rounding.

    Both are in column units: each column's violation over its norm, against
    tolerance * (2/T) max_k |X_k'y| / ||X_k||, the rounding allowance too.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(6, 60),
        n_features=st.integers(1, 5),
        kinds=COLLINEAR,
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
        price_scale=st.sampled_from([0.0, 1e-3, 1e-2, 1e-1, 1.0]),
        warm=st.booleans(),
    )
    def test_fresh_residual_kkt_within_the_bound(self, seed, n_rows, n_features, kinds, scale, price_scale, warm):
        # The features and the target are in units ``scale``; the intercept
        # column stays all ones, so its coefficient is in those units too.
        # Prices are fractions of the largest correlation at b = 0.
        rng = np.random.default_rng(seed)
        features = with_collinear_columns(rng, [rng.normal(size=n_rows) for _ in range(n_features)], kinds)
        A = np.column_stack([np.ones(n_rows), *(scale * feature for feature in features)])
        design = DesignMatrix(A, (None, *(("A", j) for j in range(1, A.shape[1]))))
        truth = rng.normal(size=A.shape[1]) * np.r_[scale, np.ones(len(features))]
        y = A @ truth + scale * rng.uniform(0.01, 1.0) * rng.normal(size=n_rows)
        largest = float(np.max(np.abs(A.T @ y)))
        penalties = price_scale * largest * rng.uniform(size=A.shape[1])
        penalties[: 1 + int(rng.integers(0, n_features + 1))] = 0.0  # the intercept and any free features
        start = rng.normal(size=A.shape[1]) * np.r_[scale, np.ones(len(features))] if warm else None

        beta = weighted_lasso_fit(design, y, penalties, start=start)

        bound = column_kkt_bound(A, y, SolverSettings().tolerance)
        allowance = in_column_units(A, certificate_allowance(A, y, beta))
        assert np.all(in_column_units(A, kkt_violations(A, y, penalties, beta)) <= bound + allowance)


def correlated_problem(rng, n_rows, n_features):
    """Intercept plus correlated, linearly independent features; about half of them penalized."""
    common = rng.normal(size=n_rows)
    features = [
        rng.uniform(0.5, 1.0) * common + rng.uniform(0.2, 1.0) * rng.normal(size=n_rows) for _ in range(n_features)
    ]
    A = np.column_stack([np.ones(n_rows), *features])
    y = A @ rng.normal(size=A.shape[1]) + rng.uniform(0.05, 1.0) * rng.normal(size=n_rows)
    penalties = rng.uniform(0.0, 0.5) * float(np.max(np.abs(A.T @ y))) * rng.uniform(size=A.shape[1])
    penalties[0] = 0.0
    penalties[1:][rng.uniform(size=n_features) < 0.5] = 0.0
    return A, y, penalties


def one_agent_design(A):
    """``A`` as a design: column 0 the intercept, the others agent A's lags 1, 2, ..."""
    return DesignMatrix(A, (None, *(("A", j) for j in range(1, A.shape[1]))))


def fit_or_none(A, y, penalties):
    """The solver's fit on ``A``, or None when it raises ConvergenceError."""
    try:
        return weighted_lasso_fit(one_agent_design(A), y, penalties)
    except ConvergenceError:
        return None


def distance_to_optimum(A, y, penalties, beta):
    """Bound on ||beta - b*||_2 from the fresh-residual KKT residual.

    The objective is mu-strongly convex with mu = (2/T) sigma_min(A)^2, so
    any subgradient g at beta gives ||beta - b*||_2 <= ||g||_2 / mu, and the
    smallest one has every entry within the KKT residual. The residual is
    padded by its rounding allowance.
    """
    T, P = A.shape
    curvature = (2.0 / T) * float(np.linalg.svd(A, compute_uv=False)[-1]) ** 2
    kkt = kkt_residual(A, y, penalties, beta) + certificate_allowance(A, y, beta)
    return np.sqrt(P) * kkt / curvature


class TestUnitsDoNotDecideTheExit:
    """Rescaling the data changes neither whether a solve converges nor, beyond its certificate, where.

    Features in units ``s_x``, the target in units ``s_y`` and the penalties
    in ``s_x * s_y`` give the same problem: the feature coefficients scale
    by ``s_y / s_x`` and the intercept by ``s_y``. Coefficients of 1e12 and
    of 1e-12 are both in reach.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(12, 60),  # more rows than columns: one optimum
        n_features=st.integers(2, 7),
        s_x=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
        s_y=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    )
    def test_exit_and_coefficients_follow_the_units(self, seed, n_rows, n_features, s_x, s_y):
        rng = np.random.default_rng(seed)
        A, y, penalties = correlated_problem(rng, n_rows, n_features)
        units = np.r_[1.0, np.full(n_features, s_x)]
        scaled_A, scaled_y, scaled_penalties = A * units, s_y * y, s_y * units * penalties

        beta = fit_or_none(A, y, penalties)
        scaled = fit_or_none(scaled_A, scaled_y, scaled_penalties)

        assert (beta is None) == (scaled is None)
        if beta is not None:
            # Back in the unscaled units, each fit lies within its own
            # certificate's distance of the one optimum.
            back = units / s_y
            slack = distance_to_optimum(A, y, penalties, beta) + back * distance_to_optimum(
                scaled_A, scaled_y, scaled_penalties, scaled
            )
            assert np.all(np.abs(back * scaled - beta) <= slack)

    @pytest.mark.parametrize("seed", [66, 87, 41])
    def test_small_features_and_a_large_target_stop_at_the_optimum(self, seed):
        # Features in units 1e-6 and the target in 1e3, so the intercept's
        # entry of X'y dwarfs the features'. A bound set by the largest entry
        # alone stops these three solves 11%, 5.2% and 3.1% from the optimum.
        A, y, penalties = correlated_problem(np.random.default_rng(seed), 12, 5)
        units = np.r_[1.0, np.full(5, 1e-6)]
        beta = fit_or_none(A, y, penalties)
        scaled = fit_or_none(A * units, 1e3 * y, 1e3 * units * penalties)
        assert beta is not None and scaled is not None
        assert np.max(np.abs(units / 1e3 * scaled - beta)) <= 1e-12 * np.max(np.abs(beta))


class TestReturnsExactlyWhenCertified:
    """The solver returns as soon as its certificate holds, and only then.

    Truncated solves at tight tolerances end on both sides of the bound
    tolerance * (2/T) max_k |X_k'y| / ||X_k||, in column units. A returned
    fit passes the fresh-residual KKT check within rounding, column by
    column, so no iterate from before the last sweep or step is handed back;
    a ConvergenceError carries an iterate well outside the bound, so no
    certifiable iterate is reported as a failure.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(7, 60),
        n_features=st.integers(1, 6),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
        tolerance=st.sampled_from([1e-12, 1e-10, 1e-8]),
        sweeps=st.integers(1, 3),
    )
    def test_certified_fits_return_and_uncertified_ones_raise(self, seed, n_rows, n_features, scale, tolerance, sweeps):
        rng = np.random.default_rng(seed)
        A, y, penalties = correlated_problem(rng, n_rows, n_features)
        A[:, 1:] *= scale
        y = scale * y
        penalties = scale * scale * penalties
        bound = column_kkt_bound(A, y, tolerance)
        try:
            beta = weighted_lasso_fit(one_agent_design(A), y, penalties, SolverSettings(tolerance, sweeps))
        except ConvergenceError as err:
            assert err.kkt_residual > bound / 2
        else:
            allowance = in_column_units(A, certificate_allowance(A, y, beta))
            assert np.all(in_column_units(A, kkt_violations(A, y, penalties, beta)) <= bound + allowance)


class TestLosses:
    def test_mse_perfect_fit_is_zero(self, rng):
        design = make_design(rng, 12, 2)
        beta = np.array([1.0, -2.0, 0.5])
        y = design.values @ beta
        assert mse(design, beta, y) == 0.0

    def test_mse_intercept_only_is_population_variance(self, rng):
        design = DesignMatrix(np.ones((20, 1)), (None,))
        y = rng.normal(size=20)
        assert abs(mse(design, np.array([y.mean()]), y) - y.var()) < 1e-12

    def test_mse_matches_direct_summation(self, rng):
        design = make_design(rng, 9, 2)
        beta = rng.normal(size=3)
        y = rng.normal(size=9)
        direct = sum(
            (y[t] - float(design.values[t] @ beta)) ** 2 for t in range(9)
        ) / 9.0
        assert abs(mse(design, beta, y) - direct) < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        design = make_design(rng, 10, 2)
        with pytest.raises(InvalidInputError):
            mse(design, np.zeros(2), rng.normal(size=10))
        with pytest.raises(InvalidInputError):
            kkt_violation(design, rng.normal(size=9), np.zeros(3), np.zeros(3))


class TestSolverSettings:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SolverSettings(tolerance=0.0)
        with pytest.raises(InvalidInputError, match="finite"):
            SolverSettings(tolerance=float("inf"))
        with pytest.raises(InvalidInputError):
            SolverSettings(max_iterations=0)
