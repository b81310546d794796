"""Least-squares and weighted-lasso estimation with per-coefficient penalties.

Conventions used throughout the package:

* A design matrix holds T rows (hours) and P columns. Column 0 is always
  the all-ones intercept column; every other column is a lagged agent
  feature identified by a ``(agent_id, lag)`` entry in ``column_map``.
* Coefficient and penalty vectors are plain float ndarrays aligned to the
  design columns. Penalties are nonnegative and the intercept entry is
  always zero, so the intercept is never shrunk.
* The penalized objective minimized by :func:`weighted_lasso_fit` is

      (1/T) * ||y - X b||^2  +  (2/T) * sum_j penalties[j] * |b_j|

  which has the same minimizer as (1/2)||y - X b||^2 + sum_j penalties[j]
  |b_j| (the two differ by the constant factor 2/T).
* The solver works on the Gram matrix G = X'X, which each design computes
  once and caches (:attr:`DesignMatrix.gram`), and on the moment c = X'y,
  which a prepared market computes once for all its clearings; so repeated
  solves on one design pay for them once, and a solve given c never reads
  X. Its cyclic coordinate descent updates the residual correlation
  q = c - G b in O(P) per coordinate, and certifies from q recomputed as
  c - G b in O(P^2). After every sweep that does not certify, an exact
  active-set step moves to the minimizer on the current sign pattern: cut
  at the first penalized sign crossing and retried on the smaller pattern,
  or, on collinear active columns, moved through the null space of their
  Gram block.
* The solver stops on one test, its certificate: the first-order
  optimality residual is at most tolerance * (2/T)||X'y||_inf, with
  ``SolverSettings.tolerance`` a relative threshold. The bound moves with
  the data's units, so they do not decide whether a solve converges. It is
  set by the largest entry of X'y: a column whose entry is far smaller,
  such as a feature in units far below the target's, is certified only to
  that larger scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InvalidInputError, finite_array, integer, real

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

    ``column_map`` has one entry per column: ``None`` marks column 0, which
    must be the all-ones intercept, and every other entry is a distinct
    ``(agent_id, lag)`` tuple: a hashable agent id and an integral lag of
    at least 1. ``column_index`` maps each pair to its column; it is built
    once, here.
    """

    values: np.ndarray
    column_map: tuple

    def __post_init__(self):
        values = finite_array(self.values, "values", (None, None), "values of the design matrix")
        column_map = tuple(self.column_map)
        if len(column_map) != values.shape[1]:
            raise InvalidInputError(
                f"column_map has {len(column_map)} entries for {values.shape[1]} columns", "column_map"
            )
        if column_map[0] is not None or not np.all(values[:, 0] == 1.0):
            raise InvalidInputError("column_map must start with None, over an all-ones intercept column", "column_map")
        column_map = (None, *map(_feature_entry, column_map[1:]))
        column_index = {entry: j for j, entry in enumerate(column_map[1:], 1)}
        if len(column_index) < len(column_map) - 1:
            raise InvalidInputError("column_map must give each later column its own (agent, lag) pair", "column_map")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_map", column_map)
        object.__setattr__(self, "column_index", column_index)

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
        """Index of the column holding ``agent_id``'s lag-``lag`` feature: a ``column_index`` lookup."""
        try:
            return self.column_index[(agent_id, lag)]
        except (KeyError, TypeError):  # TypeError: an unhashable agent id has no column either
            raise InvalidInputError(
                f"no column for agent {agent_id!r} at lag {lag}"
            ) from None

    def feature_columns(self):
        """Yield ``(index, agent_id, lag)`` for every non-intercept column."""
        for j, (agent_id, lag) in enumerate(self.column_map[1:], 1):
            yield j, agent_id, lag


def _feature_entry(entry) -> tuple:
    """A ``column_map`` entry after the intercept as ``(agent_id, lag)``: a hashable agent, an integer lag >= 1."""
    if isinstance(entry, tuple) and len(entry) == 2:
        agent_id, lag = entry
        try:
            hash(agent_id)
        except TypeError:
            pass
        else:
            lag = integer(lag, "column_map", "column_map lag")
            if lag >= 1:
                return agent_id, lag
    raise InvalidInputError(f"column_map entry {entry!r} must be an (agent_id, lag) pair with lag >= 1", "column_map")


@dataclass(frozen=True)
class SolverSettings:
    """Stopping rule for the coordinate-descent solver.

    ``tolerance`` is relative: a solve returns once the first-order
    optimality residual is at most tolerance * (2/T)||X'y||_inf, so a
    converged fit carries its own optimality certificate whatever the
    data's units. ``max_iterations`` caps the sweeps.
    """

    tolerance: float = 1e-8
    max_iterations: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "tolerance", real(self.tolerance, "tolerance"))
        if self.tolerance <= 0:
            raise InvalidInputError(f"tolerance must be positive, got {self.tolerance!r}", field="tolerance")
        object.__setattr__(self, "max_iterations", integer(self.max_iterations, "max_iterations"))
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1", field="max_iterations")


def _as_penalties(penalties, n_cols: int) -> np.ndarray:
    penalties = finite_array(penalties, "penalties", (n_cols,))
    if np.any(penalties < 0):
        raise InvalidInputError("penalties must be nonnegative", "penalties")
    if penalties[0] != 0.0:
        raise InvalidInputError("penalties must be zero on column 0, the intercept", "penalties")
    return penalties


def ols_fit(X: DesignMatrix, y) -> np.ndarray:
    """Least-squares coefficients for ``y`` on ``X``.

    Rank-deficient systems get the minimum-norm solution, so the result is
    deterministic even when T < P or columns are collinear.
    """
    y = finite_array(y, "y", (X.n_rows,))
    beta, *_ = np.linalg.lstsq(X.values, y, rcond=None)
    return beta


def mse(X: DesignMatrix, beta, y) -> float:
    """Average squared residual (1/T) * sum_t (y_t - X_t . beta)^2."""
    beta = finite_array(beta, "beta", (X.n_cols,))
    y = finite_array(y, "y", (X.n_rows,))
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
    below tol * (2/T) ||X'y||_inf, up to the rounding between this direct
    form and the solver's Gram form c - G b.
    """
    penalties = _as_penalties(penalties, X.n_cols)
    beta = finite_array(beta, "beta", (X.n_cols,))
    y = finite_array(y, "y", (X.n_rows,))
    residual = y - X.values @ beta
    return _kkt_from_correlation(X.values.T @ residual, penalties, beta, X.n_rows)


# A Cholesky pivot below this fraction of its column's squared norm, or an
# eigenvalue below this fraction of the largest, marks the active columns as
# numerically collinear: G_AA is then treated as singular. An entry of a
# null-space direction below this fraction of its largest is rounding.
_SINGULAR_PIVOT = 1e-10

# An inverse whose smallest squared Cholesky pivot is below this fraction of
# its column's squared norm carries rounding of relative order eps over that
# fraction. Downdating it would pass that rounding on to the smaller block,
# which may be well conditioned, so the smaller block is refactored instead.
_DOWNDATE_PIVOT = 1e-4


def _inverse(block):
    """Inverse of ``block`` and its smallest squared Cholesky pivot as a
    fraction of the diagonal, or ``(None, 0.0)`` when it is numerically
    singular."""
    try:
        pivots = np.linalg.cholesky(block).diagonal()
    except np.linalg.LinAlgError:
        return None, 0.0
    if np.any(pivots * pivots <= _SINGULAR_PIVOT * block.diagonal()):
        return None, 0.0
    return np.linalg.inv(block), float(np.min(pivots * pivots / block.diagonal()))


def _singular_direction(curvature, pull, push, kept):
    """Step on a singular ``kept`` block of ``curvature``, and whether it is a null-space move.

    ``push`` is the penalty's slope penalties_A * s. Since q_A = X_A'r is
    orthogonal to the null space of G_AA = X_A'X_A, the part of the pull in
    that space is the part of -push there, free of the rounding in q. Along
    it the fit does not change; if the penalty falls along it, that is the
    direction. Otherwise the step is the minimum-norm solution of
    G_AA d = pull.
    """
    values, vectors = np.linalg.eigh(curvature[np.ix_(kept, kept)])
    null = values <= _SINGULAR_PIVOT * values[-1]
    direction = np.zeros(kept.size)
    basis = vectors[:, null]
    along_null = -basis @ (basis.T @ push[kept])
    along_null[np.abs(along_null) <= _SINGULAR_PIVOT * np.max(np.abs(along_null), initial=0.0)] = 0.0
    if push[kept] @ along_null < 0.0:
        direction[kept] = along_null
        return direction, True
    basis = vectors[:, ~null]
    direction[kept] = basis @ ((basis.T @ pull[kept]) / values[~null])
    return direction, False


def _sign_pattern_step(gram, correlation, beta, penalties):
    """Exact active-set step from ``beta`` on its sign pattern, or None.

    With A the nonzero coordinates and s their signs, the objective
    restricted to {b : b_A has signs s, b_j = 0 off A} is a quadratic,
    minimized at the step d solving G_AA d = pull with the pull
    q_A - penalties_A * s (``correlation`` is q = c - G b). G_AA is
    factored once, as its inverse H. If the full step flips a penalized
    sign, it is cut at the first crossing, t in (0, 1], and that coordinate
    is set to exactly 0; the restricted quadratic falls along the cut
    segment and the penalty stays linear on it, so the objective does not
    rise. Dropping coordinate k downdates the inverse,
    H' = H_{-k,-k} - H_{-k,k} H_{k,-k} / H_kk (or refactors the kept block
    when H came from a near-singular factorization, see
    ``_DOWNDATE_PIVOT``), the pull on the kept set
    becomes (1 - t) * pull, and the step is retried until a full one keeps
    every penalized sign (the lasso modification of LARS; Osborne, Presnell
    & Turlach's active-set method). When G_AA is singular and the pull has a
    part in its null space, the fit does not change along that part and the
    penalty falls linearly, so the step moves along it until the first
    penalized coordinate reaches 0, then refactors on the smaller pattern.
    The result is returned only if the objective, evaluated over the whole
    move, did not rise through rounding.
    """
    active = np.flatnonzero(beta)
    if active.size == 0:
        return None
    curvature = gram[np.ix_(active, active)]
    signs = np.sign(beta[active])
    push = penalties[active] * signs
    pull = correlation[active] - push
    penalized = penalties[active] > 0.0
    moved = beta[active]
    kept = np.ones(active.size, dtype=bool)
    inverse, pivot = _inverse(curvature)
    while True:
        linear = False
        if inverse is not None:
            direction = inverse @ pull
        else:
            direction, linear = _singular_direction(curvature, pull, push, kept)
        # Step fraction at which each penalized coordinate moving toward 0
        # reaches it; a fraction too large to represent is never reached.
        toward = penalized & (signs * direction < 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fractions = np.where(toward, -moved / direction, np.inf)
        k = int(np.argmin(fractions))
        cut = fractions[k]
        if cut > 1.0 and not linear:
            moved += direction
            break
        moved += cut * direction
        moved[k] = 0.0
        kept[k] = False
        if not linear:
            pull *= 1.0 - cut
        if inverse is not None and pivot > _DOWNDATE_PIVOT:
            column = inverse[k].copy()
            inverse -= np.outer(column, column / column[k])
            inverse[k] = 0.0
            inverse[:, k] = 0.0
        else:
            # The pull is recomputed at the point reached, which drops the
            # rounding that steps on a singular or near-singular block put
            # into the point and the scaled pull so far.
            pull = correlation[active] - curvature @ (moved - beta[active]) - push
            block, pivot = _inverse(curvature[np.ix_(kept, kept)])
            inverse = None
            if block is not None:
                inverse = np.zeros_like(curvature)
                inverse[np.ix_(kept, kept)] = block
    # T/2 times the objective change over the whole move.
    change = moved - beta[active]
    rise = 0.5 * float(change @ curvature @ change) - float(correlation[active] @ change)
    rise += float(penalties[active] @ (np.abs(moved) - np.abs(beta[active])))
    if rise > 0.0:
        return None
    candidate = beta.copy()
    candidate[active] = moved
    return candidate


def weighted_lasso_fit(
    X: DesignMatrix, y, penalties, settings: SolverSettings | None = None, start=None, *, moment=None
) -> np.ndarray:
    """Minimize (1/T)||y - Xb||^2 + (2/T) sum_j penalties[j] |b_j|.

    Cyclic coordinate descent with covariance updates (Friedman, Hastie &
    Tibshirani, JSS 2010): the solver keeps the residual correlation
    q = X'(y - Xb) = c - G b, with the Gram matrix G = X'X (cached on ``X``
    as :attr:`DesignMatrix.gram`) and c = X'y. Each coordinate is re-solved
    in closed form by soft-thresholding q_j + G_jj b_j, and a change in b_j
    updates q with column j of G in O(P), independent of T. After every
    sweep that does not certify, the solver takes the exact active-set step
    of :func:`_sign_pattern_step`: towards the minimizer on the current
    sign pattern, cut where a penalized coefficient first reaches 0 and
    continued on the smaller pattern, or along the null space of singular
    active columns. Neither a sweep nor a step raises the objective, so it
    is non-increasing throughout.

    The solve starts from 0, or from a copy of ``start`` with
    q = c - G start; ``start`` itself is never written. A prepared market
    passes its baseline fit (b_self, 0) to every cold clearing, and
    reservation sweeps warm-start each point after the first from the
    previous point's coefficients on the same prepared market, as glmnet
    does along its path. The stopping rule and its certificate are the same
    from any start.

    ``moment`` is c = X'y computed by the caller: a prepared market computes
    it once and passes it to every clearing, so a solve given it never reads
    the T x P design. Without it the solve computes ``X.values.T @ y``, the
    same expression, so the result does not depend on who computed c. A
    given ``moment`` must equal ``X.values.T @ y`` for this exact ``y``;
    only its shape and finiteness are checked, so a moment from another
    window or target is certified against silently and yields a wrong fit.

    The solve has one stopping test, its certificate: it returns as soon as
    the first-order optimality residual, computed from q recomputed from b
    as c - G b, is at most ``settings.tolerance * (2/T) ||X'y||_inf``. The
    test is made at the start, after every sweep and after every accepted
    step. Recomputing q drops the rounding the covariance updates
    accumulated in it; its own rounding, of order eps * (|c| + |G||b|), is
    that of the direct form X'(y - Xb). Features in units s_x, the target
    in s_y and the penalties in s_x * s_y scale each feature's gradient and
    its entry of c by s_x * s_y, and the intercept's by s_y, so the bound
    moves with the data's units.

    Raises :class:`ConvergenceError` when ``settings.max_iterations`` sweeps
    are exhausted first, with the last iterate and its optimality residual,
    measured from a fresh residual, attached.
    """
    if settings is None:
        settings = SolverSettings()
    A = X.values
    n_rows, n_cols = A.shape
    y = finite_array(y, "y", (n_rows,))
    penalties = _as_penalties(penalties, n_cols)

    gram = X.gram
    diagonal = np.diag(gram).tolist()
    moment = A.T @ y if moment is None else finite_array(moment, "moment", (n_cols,))
    kkt_bound = settings.tolerance * (2.0 / n_rows) * float(np.max(np.abs(moment)))
    beta = np.zeros(n_cols) if start is None else finite_array(start, "start", (n_cols,)).copy()
    correlation = moment - gram @ beta
    if _kkt_from_correlation(correlation, penalties, beta, n_rows) <= kkt_bound:
        return beta

    # The sweep reads and writes Python floats, the same IEEE doubles as
    # numpy's scalars without their per-access cost; beta is rebuilt once per sweep.
    weights = penalties.tolist()
    for _ in range(settings.max_iterations):
        coefficients = beta.tolist()
        for j in range(n_cols):
            sq = diagonal[j]
            if sq == 0.0:
                # All-zero column: it cannot change the fit, leave b_j = 0.
                continue
            current = coefficients[j]
            rho = correlation.item(j) + sq * current
            if weights[j] > 0.0:
                # Soft-threshold: shrink rho toward 0 by the penalty, to 0 at most.
                magnitude = abs(rho) - weights[j]
                updated = 0.0 if magnitude <= 0.0 else (magnitude if rho > 0 else -magnitude) / sq
            else:
                updated = rho / sq
            if updated != current:
                correlation -= (updated - current) * gram[j]
                coefficients[j] = updated
        beta = np.array(coefficients)
        # Certify from q recomputed from b, which drops the rounding error
        # the covariance updates accumulated in it.
        correlation = moment - gram @ beta
        if _kkt_from_correlation(correlation, penalties, beta, n_rows) <= kkt_bound:
            return beta
        candidate = _sign_pattern_step(gram, correlation, beta, penalties)
        if candidate is not None:
            beta = candidate
            correlation = moment - gram @ beta
            if _kkt_from_correlation(correlation, penalties, beta, n_rows) <= kkt_bound:
                return beta

    # Measured for the iterate handed back from a fresh residual, which only this failure path computes.
    kkt = _kkt_from_correlation(A.T @ (y - A @ beta), penalties, beta, n_rows)
    raise ConvergenceError(
        f"coordinate descent did not converge in {settings.max_iterations} sweeps "
        f"(optimality residual {kkt:.3e}, bound {kkt_bound:.3e} from tolerance {settings.tolerance:.3e})",
        last_beta=beta,
        kkt_residual=kkt,
    )
