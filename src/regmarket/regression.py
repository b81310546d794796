"""Least-squares and weighted-lasso estimation with per-coefficient penalties.

Conventions used throughout the package:

* A design matrix holds T rows (hours) and P columns. Column 0 is normally
  an all-ones intercept column; every other column is a lagged agent
  feature identified by a ``(agent_id, lag)`` entry in ``column_map``.
* Coefficient and penalty vectors are plain float ndarrays aligned to the
  design columns. Penalties are nonnegative and the intercept entry is
  always zero, so the intercept is never shrunk.
* The penalized objective minimized by :func:`weighted_lasso_fit` is

      (1/T) * ||y - X b||^2  +  (2/T) * sum_j penalties[j] * |b_j|

  which has the same minimizer as (1/2)||y - X b||^2 + sum_j penalties[j]
  |b_j| (the two differ by the constant factor 2/T).
* The solver works on the Gram matrix G = X'X, which each design computes
  once and caches (:attr:`DesignMatrix.gram`), so repeated solves on one
  design pay for it once. Its cyclic coordinate descent updates the
  residual correlation q = X'y - G b in O(P) per coordinate and every few
  sweeps tries the exact solve on the current sign pattern.
* ``SolverSettings.tolerance`` bounds the last sweep's largest coefficient
  change, in coefficient units, and the first-order optimality residual
  relative to the data's scale: at most tolerance * max(1, (2/T)||X'y||_inf).
  The stopping rule therefore does not depend on the data's units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InvalidInputError

__all__ = [
    "DesignMatrix",
    "SolverSettings",
    "ols_fit",
    "weighted_lasso_fit",
    "mse",
    "kkt_violation",
]


@dataclass(frozen=True)
class DesignMatrix:
    """Regressor matrix plus the provenance of each column.

    ``column_map`` has one entry per column: ``None`` marks the intercept
    column (only allowed, and then required to be all ones, at position 0),
    and any other entry is an ``(agent_id, lag)`` pair. Duplicate pairs are
    rejected.
    """

    values: np.ndarray
    column_map: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidInputError(
                f"design matrix must be 2-D with at least one row and column, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("design matrix contains non-finite values")
        column_map = tuple(self.column_map)
        if len(column_map) != values.shape[1]:
            raise InvalidInputError(
                f"column_map has {len(column_map)} entries for {values.shape[1]} columns"
            )
        if any(entry is None for entry in column_map[1:]):
            raise InvalidInputError("intercept marker may only appear at column 0")
        if column_map[0] is None and not np.all(values[:, 0] == 1.0):
            raise InvalidInputError("intercept column must be all ones")
        features = [entry for entry in column_map if entry is not None]
        if len(set(features)) != len(features):
            raise InvalidInputError("duplicate (agent, lag) column in design matrix")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_map", column_map)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """The Gram matrix X'X, computed on first use and read-only.

        Cached on the design, so every solve on one design (all points of a
        reservation sweep on one prepared market) shares one copy.
        """
        gram = self.values.T @ self.values
        gram.flags.writeable = False
        return gram

    def column_of(self, agent_id, lag: int) -> int:
        """Index of the column holding ``agent_id``'s lag-``lag`` feature."""
        try:
            return self.column_map.index((agent_id, lag))
        except ValueError:
            raise InvalidInputError(
                f"no column for agent {agent_id!r} at lag {lag}"
            ) from None

    def feature_columns(self):
        """Yield ``(index, agent_id, lag)`` for every non-intercept column."""
        for j, entry in enumerate(self.column_map):
            if entry is not None:
                yield j, entry[0], entry[1]


@dataclass(frozen=True)
class SolverSettings:
    """Stopping rule for the coordinate-descent solver.

    ``tolerance`` bounds the largest coefficient change in the last full
    sweep and the first-order optimality residual of the returned solution,
    the latter scaled by max(1, (2/T)||X'y||_inf), so a converged fit
    carries its own optimality certificate whatever the data's units.
    """

    tolerance: float = 1e-8
    max_iterations: int = 10_000

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise InvalidInputError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")


def _as_target(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != n_rows:
        raise InvalidInputError(
            f"target must be a length-{n_rows} vector, got shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("target contains non-finite values")
    return y


def _as_coefficients(beta, n_cols: int) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != n_cols:
        raise InvalidInputError(
            f"coefficient vector must have length {n_cols}, got shape {beta.shape}"
        )
    if not np.all(np.isfinite(beta)):
        raise InvalidInputError("coefficient vector contains non-finite values")
    return beta


def _as_penalties(penalties, n_cols: int) -> np.ndarray:
    penalties = np.asarray(penalties, dtype=float)
    if penalties.ndim != 1 or penalties.shape[0] != n_cols:
        raise InvalidInputError(
            f"penalty vector must have length {n_cols}, got shape {penalties.shape}"
        )
    if not np.all(np.isfinite(penalties)) or np.any(penalties < 0):
        raise InvalidInputError("penalties must be finite and nonnegative")
    if penalties[0] != 0.0:
        raise InvalidInputError("penalty on column 0 (intercept) must be zero")
    return penalties


def ols_fit(X: DesignMatrix, y) -> np.ndarray:
    """Least-squares coefficients for ``y`` on ``X``.

    Rank-deficient systems get the minimum-norm solution, so the result is
    deterministic even when T < P or columns are collinear.
    """
    y = _as_target(y, X.n_rows)
    beta, *_ = np.linalg.lstsq(X.values, y, rcond=None)
    return beta


def mse(X: DesignMatrix, beta, y) -> float:
    """Average squared residual (1/T) * sum_t (y_t - X_t . beta)^2."""
    beta = _as_coefficients(beta, X.n_cols)
    y = _as_target(y, X.n_rows)
    residual = y - X.values @ beta
    return float(residual @ residual) / X.n_rows


def _kkt_from_correlation(correlation, penalties, beta, n_rows):
    """Largest optimality violation, given the residual correlation X' r."""
    gradient = (2.0 / n_rows) * correlation
    thresholds = (2.0 / n_rows) * penalties
    at_zero = beta == 0.0
    violation = np.abs(gradient - thresholds * np.sign(beta))
    violation[at_zero] = np.maximum(np.abs(gradient[at_zero]) - thresholds[at_zero], 0.0)
    return float(np.max(violation))


def kkt_violation(X: DesignMatrix, y, penalties, beta) -> float:
    """Largest first-order optimality violation of ``beta``, in gradient units.

    Computed from a fresh residual: for a penalized column the residual
    correlation (2/T) X_j . r must sit inside [-t_j, t_j] when b_j = 0 and
    equal t_j * sign(b_j) otherwise (t_j = (2/T) penalties[j]); unpenalized
    columns need zero correlation. A tolerance-tol solve keeps this at or
    below tol * max(1, (2/T) ||X'y||_inf).
    """
    penalties = _as_penalties(penalties, X.n_cols)
    beta = _as_coefficients(beta, X.n_cols)
    y = _as_target(y, X.n_rows)
    residual = y - X.values @ beta
    return _kkt_from_correlation(X.values.T @ residual, penalties, beta, X.n_rows)


# Sweeps between attempts at the exact solve on the current sign pattern.
_EXACT_STEP_EVERY = 5
# A Cholesky pivot below this fraction of its column's squared norm marks the
# active columns as numerically collinear; the exact step is then skipped.
_SINGULAR_PIVOT = 1e-10


def _sign_pattern_step(gram, correlation, beta, penalties):
    """Exact minimizer on the sign pattern of ``beta``, or None.

    With A the nonzero coordinates and s their signs, the smooth objective
    restricted to {b : b_A has signs s, b_j = 0 off A} is minimized where
    G_AA b_A = c_A - penalties_A * s, i.e. at the step d solving
    G_AA d = q_A - penalties_A * s, where ``correlation`` is q = c - G b.
    The step is returned only if G_AA is well conditioned, every penalized
    coordinate keeps its sign and the objective does not rise.
    """
    active = np.flatnonzero(beta)
    if active.size == 0:
        return None
    g_aa = gram[np.ix_(active, active)]
    try:
        pivots = np.diag(np.linalg.cholesky(g_aa))
    except np.linalg.LinAlgError:
        return None
    if np.any(pivots * pivots <= _SINGULAR_PIVOT * np.diag(g_aa)):
        return None
    pull = correlation[active] - penalties[active] * np.sign(beta[active])
    step = np.linalg.solve(g_aa, pull)
    candidate = beta.copy()
    candidate[active] += step
    penalized = active[penalties[active] > 0.0]
    if np.any(np.sign(candidate[penalized]) != np.sign(beta[penalized])):
        return None
    # T times the objective change along the step; the penalty term is
    # linear in it because no penalized sign changes.
    if float(step @ g_aa @ step) - 2.0 * float(pull @ step) > 0.0:
        return None
    return candidate


def weighted_lasso_fit(
    X: DesignMatrix, y, penalties, settings: SolverSettings | None = None
) -> np.ndarray:
    """Minimize (1/T)||y - Xb||^2 + (2/T) sum_j penalties[j] |b_j|.

    Cyclic coordinate descent with covariance updates (Friedman, Hastie &
    Tibshirani, JSS 2010): the solver keeps the residual correlation
    q = X'(y - Xb) = c - G b, with the Gram matrix G = X'X (cached on ``X``
    as :attr:`DesignMatrix.gram`) and c = X'y. Each coordinate is re-solved
    in closed form by soft-thresholding q_j + G_jj b_j, and a change in b_j
    updates q with column j of G in O(P), independent of T. Every five
    sweeps the solver also tries the exact minimizer on the current sign
    pattern and keeps it only if no penalized sign flips and the objective
    does not rise, so the objective is non-increasing from sweep to sweep.

    The solve stops once a full sweep moves no coefficient by more than
    ``settings.tolerance`` *and* the first-order optimality residual,
    recomputed from a fresh residual y - Xb, is at most
    ``settings.tolerance * max(1, (2/T) ||X'y||_inf)``. Scaling the data by
    s and the penalties by s^2 scales every gradient by s^2, so that bound
    makes the stopping rule independent of the data's units.

    Raises :class:`ConvergenceError` with the last iterate attached when
    ``settings.max_iterations`` sweeps are exhausted first.
    """
    if settings is None:
        settings = SolverSettings()
    A = X.values
    n_rows, n_cols = A.shape
    y = _as_target(y, n_rows)
    penalties = _as_penalties(penalties, n_cols)

    gram = X.gram
    diagonal = np.diag(gram).tolist()
    moment = A.T @ y
    kkt_bound = settings.tolerance * max(1.0, (2.0 / n_rows) * float(np.max(np.abs(moment))))
    beta = np.zeros(n_cols)
    correlation = moment.copy()
    delta = np.inf
    kkt = np.inf

    for sweep in range(1, settings.max_iterations + 1):
        delta = 0.0
        for j in range(n_cols):
            sq = diagonal[j]
            if sq == 0.0:
                # All-zero column: it cannot change the fit, leave b_j = 0.
                continue
            current = beta[j]
            rho = correlation[j] + sq * current
            if penalties[j] > 0.0:
                # Soft-threshold: shrink rho toward 0 by the penalty, to 0 at most.
                magnitude = abs(rho) - penalties[j]
                updated = 0.0 if magnitude <= 0.0 else (magnitude if rho > 0 else -magnitude) / sq
            else:
                updated = rho / sq
            if updated != current:
                correlation -= (updated - current) * gram[j]
                step = abs(updated - current)
                if step > delta:
                    delta = step
                beta[j] = updated
        if delta < settings.tolerance:
            # Certify from a fresh residual, which also drops the rounding
            # error the covariance updates accumulated in q.
            correlation = A.T @ (y - A @ beta)
            kkt = _kkt_from_correlation(correlation, penalties, beta, n_rows)
            if kkt <= kkt_bound:
                return beta
        if sweep % _EXACT_STEP_EVERY == 0:
            candidate = _sign_pattern_step(gram, correlation, beta, penalties)
            if candidate is not None:
                beta = candidate
                correlation = moment - gram @ beta

    raise ConvergenceError(
        f"coordinate descent did not converge in {settings.max_iterations} sweeps "
        f"(last sweep delta {delta:.3e}, optimality residual {kkt:.3e}, "
        f"bound {kkt_bound:.3e} from tolerance {settings.tolerance:.3e})",
        last_beta=beta,
        sweep_delta=delta,
        kkt_residual=None if np.isinf(kkt) else kkt,
    )
