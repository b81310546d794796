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
    build_lag_matrix,
    kkt_violation,
    mse,
    ols_fit,
    weighted_lasso_fit,
)

from conftest import make_design, random_instance
from oracles import (
    kkt_residual,
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

    def test_duplicate_feature_rejected(self):
        values = np.ones((3, 3))
        with pytest.raises(InvalidInputError):
            DesignMatrix(values, (None, ("A", 1), ("A", 1)))

    def test_non_finite_rejected(self):
        values = np.array([[1.0, np.nan], [1.0, 2.0]])
        with pytest.raises(InvalidInputError):
            DesignMatrix(values, (None, ("A", 1)))

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
        settings = SolverSettings(tolerance=1e-12, max_iterations=1)
        with pytest.raises(ConvergenceError) as excinfo:
            weighted_lasso_fit(design, y, np.zeros(5), settings)
        err = excinfo.value
        assert err.last_beta is not None and err.last_beta.shape == (5,)
        assert err.sweep_delta is not None and err.sweep_delta > 0

    def test_non_convergence_reports_the_measured_residual(self, rng):
        # One sweep moves too far to try a certificate, so the residual is
        # measured only when the error is raised.
        design = make_design(rng, 30, 4)
        y = rng.normal(size=30)
        penalties = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
        with pytest.raises(ConvergenceError) as excinfo:
            weighted_lasso_fit(design, y, penalties, SolverSettings(max_iterations=1))
        err = excinfo.value
        expected = kkt_residual(design.values, y, penalties, err.last_beta)
        assert abs(err.kkt_residual - expected) <= 1e-12 * max(1.0, expected)
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
        tolerance = SolverSettings().tolerance
        bound = 10 * tolerance * max(1.0, (2.0 / design.n_rows) * np.max(np.abs(values.T @ y)))
        for u in (0.0, 1.0):
            penalties = np.where(sellers, (design.n_rows / 2.0) * u, 0.0)
            wide_penalties = np.append(penalties, 0.0)
            beta = weighted_lasso_fit(widened, y, wide_penalties)
            assert kkt_residual(values, y, wide_penalties, beta) <= bound
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
        tolerance = SolverSettings().tolerance
        scale = max(1.0, (2.0 / design.n_rows) * np.max(np.abs(design.values.T @ y)))
        assert kkt_residual(design.values, y, penalties, beta) <= 10 * tolerance * scale

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
