"""Least-squares and weighted-lasso estimation with per-coefficient penalties.

Conventions used throughout the package:

* A design matrix holds T rows (hours) and P columns. Column 0 is always
  the all-ones intercept column; every other column is a lagged agent
  feature identified by a ``(agent_id, lag)`` entry in ``column_map``.
  :class:`DesignMatrix` is the one design class: it holds the series its
  columns are shifts of, ``max_lag`` columns per series, and a matrix given
  directly is such a design at ``max_lag`` 1.
* Coefficient and penalty vectors are plain float ndarrays aligned to the
  design columns. Penalties are nonnegative and the intercept entry is
  always zero, so the intercept is never shrunk.
* The penalized objective minimized by :func:`weighted_lasso_fit` is

      (1/T) * ||y - X b||^2  +  (2/T) * sum_j penalties[j] * |b_j|

  which has the same minimizer as (1/2)||y - X b||^2 + sum_j penalties[j]
  |b_j| (the two differ by the constant factor 2/T).
* Apart from :func:`ols_fit`'s solve, every sum over the T rows is formed by
  :class:`NormalEquations` (G = X'X, c = X'y and y'y of one design and target)
  through the design's :meth:`DesignMatrix.gram` and
  :meth:`DesignMatrix.moment`, formed from those series, or by
  :func:`_row_sums`, which sums in an
  order set by the data, not by the BLAS thread count. A prepared market
  forms the record once for all its clearings, and a solve given it never
  reads X. The solver's cyclic
  coordinate descent updates the residual correlation q = c - G b in O(P) per
  coordinate, and certifies from q recomputed as c - G b in O(P^2). After
  every sweep that does not certify, an exact active-set step moves to the
  minimizer on the current sign pattern: cut at the first penalized sign
  crossing and retried on the smaller pattern, or, on collinear active
  columns, moved through the null space of their Gram block.
* The solver stops on one test, its certificate, read in column units:
  each column's first-order optimality violation over its norm ||X_j|| is
  at most tolerance * (2/T) max_k |X_k'y| / ||X_k||, with
  ``SolverSettings.tolerance`` a relative threshold; an all-zero column, which
  the sweep leaves at 0, counts no violation. Rescaling a column or the target
  scales both sides alike, so the data's units decide neither whether a solve
  converges nor where it stops, however far apart the columns' units are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConvergenceError, InvalidInputError, finite_array, integer, real

__all__ = [
    "DesignMatrix",
    "NormalEquations",
    "SolverSettings",
    "ols_fit",
    "weighted_lasso_fit",
    "mse",
    "kkt_violation",
]


class DesignMatrix:
    """Regressor matrix plus the provenance of each column, held as the series its columns are shifts of.

    ``history`` is read-only, one row per block of ``max_lag`` columns: row 0,
    all ones, is the intercept's, and the column at block position ``d``
    (0-based) of row ``k`` is ``history[k, d : d + T]``.
    ``DesignMatrix(values, column_map)`` holds a T x P matrix as the history
    ``values.T`` at ``max_lag`` 1, a read-only view with no copy (writing into
    the matrix afterwards changes the design, as for any NumPy view). A lag
    design (:func:`regmarket.timeseries.build_lag_matrix`) holds each agent's
    hours. Either builds its own read-only T x P ``values`` when first read,
    by one strided copy of the sliding windows in row order.

    ``column_map`` has one entry per column: ``None`` marks column 0, which
    must be the all-ones intercept, and every other entry is a distinct
    ``(agent_id, lag)`` tuple: a hashable agent id and an integral lag of
    at least 1. ``column_index`` maps each pair to its column; it is built
    once, here. :meth:`gram` and :meth:`moment` are the products
    :class:`NormalEquations` forms, from ``history`` without the T x P
    matrix. A design is read-only and equal only to itself, and its repr
    shows its shape and columns, not its values.
    """

    def __init__(self, values, column_map):
        values = finite_array(values, "values", (None, None), "values of the design matrix")
        self._hold(values.T, 1, column_map)

    @classmethod
    def _lagged(cls, history: np.ndarray, max_lag: int, column_map) -> "DesignMatrix":
        """The design over ``history``, whose rows are cut from series already checked finite, so not scanned again."""
        design = cls.__new__(cls)
        design._hold(history, max_lag, column_map)
        return design

    def _hold(self, history, max_lag: int, column_map) -> None:
        """Check ``column_map`` against the columns and the intercept, and set it, ``column_index`` and the history."""
        history.flags.writeable = False
        vars(self).update(history=history, max_lag=max_lag)
        column_map = tuple(column_map)
        if len(column_map) != self.n_cols:
            raise InvalidInputError(f"column_map has {len(column_map)} entries for {self.n_cols} columns", "column_map")
        if column_map[0] is not None or not np.all(history[0] == 1.0):
            raise InvalidInputError("column_map must start with None, over an all-ones intercept column", "column_map")
        column_map = (None, *map(_feature_entry, column_map[1:]))
        column_index = {}
        for j, entry in enumerate(column_map[1:], 1):
            if column_index.setdefault(entry, j) != j:
                agent_id, lag = entry
                message = f"column_map gives agent {agent_id!r} lag {lag} more than one column"
                raise InvalidInputError(message, "column_map")
        vars(self).update(column_map=column_map, column_index=column_index)

    def __setattr__(self, name, value):
        raise AttributeError(f"DesignMatrix is read-only; cannot set {name!r}")

    def __repr__(self) -> str:
        shape = f"n_rows={self.n_rows}, n_cols={self.n_cols}, max_lag={self.max_lag}"
        return f"DesignMatrix({shape}, column_map={self.column_map!r})"

    @property
    def n_rows(self) -> int:
        return self.history.shape[1] - self.max_lag + 1

    @property
    def n_cols(self) -> int:
        return 1 + (self.history.shape[0] - 1) * self.max_lag

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

    def _windows(self) -> np.ndarray:
        """``windows[t, k, d] = history[k, t + d]``, row t's block of history row k, as a read-only view."""
        H = self.history
        return as_strided(H, (self.n_rows, H.shape[0], self.max_lag), (H.strides[1], *H.strides), writeable=False)

    @cached_property
    def values(self) -> np.ndarray:
        values = np.empty((self.n_rows, self.n_cols))
        values[:, 0] = 1.0
        values[:, 1:].reshape(self.n_rows, -1, self.max_lag)[...] = self._windows()[:, 1:]
        values.flags.writeable = False
        return values

    def prefix(self, rows: int | None = None, agents: int | None = None) -> "DesignMatrix":
        """The first ``rows`` rows (1 to ``n_rows``) and ``agents`` agents (0 to all) of this design, over a view of ``history``."""
        D, held = self.max_lag, self.history.shape[0] - 1
        rows = self.n_rows if rows is None else integer(rows, "rows", least=1)
        agents = held if agents is None else integer(agents, "agents", least=0)
        for field, value, most in (("rows", rows, self.n_rows), ("agents", agents, held)):
            if value > most:
                raise InvalidInputError(f"{field} must be at most {most}, got {value!r}", field)
        history = self.history[: 1 + agents, : rows + D - 1]
        return DesignMatrix._lagged(history, D, self.column_map[: 1 + agents * D])

    def moment(self, y: np.ndarray) -> np.ndarray:
        """``X'y`` by :func:`_row_sums` over the sliding windows; the intercept's is that of row 0's last block position."""
        return _row_sums(self._windows(), y).ravel()[self.max_lag - 1 :]

    def gram(self) -> np.ndarray:
        """``X'X`` from ``history``, with no T x P matrix (the covariance method of linear prediction).

        With ``k = d - e >= 0``, the entry of columns ``(a, d)`` and ``(b, e)``
        is ``sum_s history[a, s + k] * history[b, s]`` over the hours ``s`` in
        ``e .. e + T - 1``. Each such range holds the hours ``D - 1 .. T - 1``,
        so one matrix product per shift ``k`` sums that common core for every
        pair of rows, and ``np.einsum`` sums each entry's ``min(D - 1, T)``
        hours outside it. An entry is its core plus its edge, both sums of its
        own products, so nothing cancels and it is within T eps of the sum of
        its terms' magnitudes. Row 0's block at position ``D - 1`` is the
        intercept. ``X'X`` is exactly symmetric: at ``k = 0`` the core is a
        product of one matrix with its own transpose, which numpy forms
        symmetric, and the edge sums multiply the same pairs in the same order.
        At ``max_lag`` 1 there are no edge hours and the core is ``values.T @ values``.
        """
        H, D, T = self.history, self.max_lag, self.n_rows
        shifts, offsets, edges = _lag_pairs(D, T)
        blocks = np.einsum("apk,bpk->pab", H[:, edges + shifts[:, None]], H[:, edges])
        if T >= D:  # the core hours D - 1 .. T - 1
            blocks += np.stack([H[:, D - 1 + k : T + k] @ H[:, D - 1 : T].T for k in range(D)])[shifts]
        full = np.empty((H.shape[0] * D,) * 2)
        rows = full.reshape(H.shape[0], D, H.shape[0], D)  # rows[a, d, b, e]: columns (a, d) and (b, e)
        rows[:, offsets, :, shifts + offsets] = blocks.transpose(0, 2, 1)
        rows[:, shifts + offsets, :, offsets] = blocks
        return full[D - 1 :, D - 1 :].copy()


@lru_cache(maxsize=64)
def _lag_pairs(max_lag: int, window: int) -> tuple:
    """For each pair of block positions ``d >= e``: its shift ``d - e``, ``e``, and the hours outside the core it sums.

    The arrays are read-only, as every call with these arguments shares them.
    """
    shifts, offsets = np.array([(k, e) for k in range(max_lag) for e in range(max_lag - k)]).T
    edges = [[*range(e, min(max_lag - 1, e + window)), *range(max(window, max_lag - 1), e + window)] for e in offsets]
    edges = np.array(edges, dtype=np.intp)
    for array in (shifts, offsets, edges):
        array.flags.writeable = False
    return shifts, offsets, edges


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


def _row_sums(a, b):
    """sum_t a[t] * b[t]: X'v for a T x P ``a``, v'w for vectors. ``np.einsum`` without ``optimize``
    sums in its own loop, not BLAS's, so the bits do not depend on the BLAS thread count."""
    return np.einsum("t...,t->...", a, b)


@dataclass(frozen=True, eq=False)
class NormalEquations:
    """The normal equations of ``target`` on ``design``, formed once: ``gram`` G = X'X and ``moment``
    c = X'y, both read-only, and ``target_square`` y'y. The design forms G and c
    (:meth:`DesignMatrix.gram`, :meth:`DesignMatrix.moment`) from the series its columns are
    shifts of, the same way for every design. y'y comes from :func:`_row_sums`. The record keeps
    the very ``design`` and ``target`` it was formed from (a float64 target is the caller's own
    array), so a solve handed a record checks by identity that it belongs to its data. Writing
    into the target afterwards leaves ``moment`` and ``target_square`` stale, and that check
    still passes; a prepared market's target is read-only, so its record cannot go stale.
    """

    design: DesignMatrix
    target: np.ndarray

    def __post_init__(self):
        target = finite_array(self.target, "y", (self.design.n_rows,))
        gram, moment = self.design.gram(), self.design.moment(target)
        gram.flags.writeable = moment.flags.writeable = False
        vars(self).update(target=target, gram=gram, moment=moment, target_square=float(_row_sums(target, target)))


@dataclass(frozen=True)
class SolverSettings:
    """Stopping rule for the coordinate-descent solver.

    ``tolerance`` is relative: a solve returns once each column's first-order
    optimality violation over its norm ||X_j|| is at most tolerance * (2/T)
    max_k |X_k'y| / ||X_k||, so a converged fit carries its own optimality
    certificate whatever the data's units. ``max_iterations`` caps the sweeps.
    """

    tolerance: float = 1e-8
    max_iterations: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "tolerance", real(self.tolerance, "tolerance"))
        if self.tolerance <= 0:
            raise InvalidInputError(f"tolerance must be positive, got {self.tolerance!r}", field="tolerance")
        object.__setattr__(self, "max_iterations", integer(self.max_iterations, "max_iterations", least=1))


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


def _householder_lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares coefficients of ``y`` on the T x P ``A``, the same at any BLAS thread count.

    A Householder QR of ``[A y]``, each reflection's sums by :func:`_row_sums`, gives ``R`` and
    ``z = Q'y``; ``np.linalg.lstsq(R, z)`` on that small system is then ``lstsq(A, y)`` to rounding,
    with the same rank cutoff, as ``R`` has ``A``'s singular values. ``lstsq(A, y)`` itself reduces
    over the T rows in BLAS threads, and its bits change with their number.
    """
    R = np.column_stack([A, y])
    for j in range(min(R.shape)):
        column = R[j:, j]
        norm = float(np.sqrt(_row_sums(column, column)))
        if norm > 0.0:
            v = column.copy()
            v[0] += np.copysign(norm, v[0])
            R[j:, j:] -= np.outer(v, _row_sums(R[j:, j:], v) * (2.0 / _row_sums(v, v)))
    R = np.triu(R[: R.shape[1]])
    return np.linalg.lstsq(R[:, :-1], R[:, -1], rcond=None)[0]


def mse(X: DesignMatrix, beta, y) -> float:
    """Average squared residual (1/T) * sum_t (y_t - X_t . beta)^2."""
    beta = finite_array(beta, "beta", (X.n_cols,))
    y = finite_array(y, "y", (X.n_rows,))
    residual = y - X.values @ beta
    return float(_row_sums(residual, residual)) / X.n_rows


def _kkt_from_correlation(correlation, penalties, beta, unit):
    """Largest optimality violation from the residual correlation X' r: 2/T, or (2/T)/||X_j||, times it."""
    gradient = unit * correlation
    thresholds = unit * penalties
    # Off zero |g - t sign(b)|; at zero |g| - t, floored at 0 by ``initial``.
    violation = np.abs(gradient - thresholds * np.sign(beta)) - thresholds * (beta == 0.0)
    return float(np.max(violation, initial=0.0))


def kkt_violation(X: DesignMatrix, y, penalties, beta) -> float:
    """Largest first-order optimality violation of ``beta``, in gradient units.

    Computed from a fresh residual: for a penalized column the residual
    correlation (2/T) X_j . r must sit inside [-t_j, t_j] when b_j = 0 and
    equal t_j * sign(b_j) otherwise (t_j = (2/T) penalties[j]); unpenalized
    columns need zero correlation. The solver certifies the same violations
    in column units, each over its column's norm: a tolerance-tol solve keeps
    column j's at or below ||X_j|| tol (2/T) max_k |X_k'y| / ||X_k||, up to
    the rounding between this direct form and the solver's Gram form c - G b.
    """
    penalties = _as_penalties(penalties, X.n_cols)
    beta = finite_array(beta, "beta", (X.n_cols,))
    y = finite_array(y, "y", (X.n_rows,))
    return _kkt_from_correlation(_row_sums(X.values, y - X.values @ beta), penalties, beta, 2.0 / X.n_rows)


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
    X: DesignMatrix, y, penalties, settings: SolverSettings | None = None, start=None, *, normal=None
) -> np.ndarray:
    """Minimize (1/T)||y - Xb||^2 + (2/T) sum_j penalties[j] |b_j|.

    Cyclic coordinate descent with covariance updates (Friedman, Hastie &
    Tibshirani, JSS 2010): the solver keeps the residual correlation
    q = X'(y - Xb) = c - G b, with the Gram matrix G = X'X and c = X'y read
    from ``normal``. Each coordinate is re-solved in closed form by
    soft-thresholding q_j + G_jj b_j, and a change in b_j updates q with
    column j of G in O(P), independent of T. After every sweep that does not
    certify, the solver takes the exact active-set step of
    :func:`_sign_pattern_step`: towards the minimizer on the current sign
    pattern, cut where a penalized coefficient first reaches 0 and continued
    on the smaller pattern, or along the null space of singular active
    columns. Neither a sweep nor a step raises the objective, so it is
    non-increasing throughout.

    The solve starts from 0, or from a copy of ``start`` with q = c - G b;
    ``start`` itself is never written. The copy's entries on all-zero
    columns are set to 0, the only minimizer for such a column when it is
    penalized, since the sweep leaves them at 0 and the certificate skips them. A
    prepared market passes its baseline fit (b_self, 0) to every cold
    clearing, and reservation sweeps warm-start each point after the first
    from the previous point's coefficients on the same prepared market, as
    glmnet does along its path. The stopping rule and its certificate are
    the same from any start.

    ``normal`` is the :class:`NormalEquations` record of ``X`` and ``y``: a
    prepared market forms it once and passes it to every clearing. Without
    it the solve forms its own, through the same design methods, so the
    result does not depend on who formed it. A record whose design or target
    is not this very ``X`` or ``y`` is rejected naming ``normal``. The solve
    reads only ``X``'s shape, and its values only to measure the residual of
    a failed solve, so a design's T x P values are not built for it.

    The solve has one stopping test, its certificate, in column units: it
    returns as soon as the first-order optimality residual, computed from q
    recomputed from b as c - G b with each column's violation divided by
    ||X_j|| = sqrt(G_jj), is at most
    ``settings.tolerance * (2/T) max_k |c_k| / ||X_k||``; the reciprocal
    norms are formed once per solve, and an all-zero column counts no
    violation. The test is made at the start, after every sweep and after
    every accepted step. Recomputing q drops the rounding the covariance updates
    accumulated in it; its own rounding, of order eps * (|c| + |G||b|), is
    that of the direct form X'(y - Xb). A column in units s_x and the target
    in s_y scale that column's violation and entry of c by s_x * s_y and its
    norm by s_x, so every column's side of the test scales by s_y alone.

    Raises :class:`ConvergenceError` when ``settings.max_iterations`` sweeps
    are exhausted first, with the last iterate and its optimality residual,
    measured from a fresh residual in the same column units, attached.
    """
    if settings is None:
        settings = SolverSettings()
    if normal is None:
        normal = NormalEquations(X, y)
    elif normal.design is not X or normal.target is not y:
        raise InvalidInputError("normal must be the NormalEquations of this very X and y", "normal")
    y, gram, moment = normal.target, normal.gram, normal.moment
    n_rows, n_cols = X.n_rows, X.n_cols
    penalties = _as_penalties(penalties, n_cols)
    squares = np.diag(gram)
    unit = np.divide(2.0 / n_rows, np.sqrt(squares), out=np.zeros(n_cols), where=squares > 0.0)
    kkt_bound = settings.tolerance * float(np.max(np.abs(moment) * unit))
    beta = np.zeros(n_cols) if start is None else finite_array(start, "start", (n_cols,)).copy()
    beta[squares == 0.0] = 0.0  # columns with G_jj = 0, which the sweep leaves at 0
    correlation = moment - gram @ beta
    if _kkt_from_correlation(correlation, penalties, beta, unit) <= kkt_bound:
        return beta

    # The sweep reads and writes Python floats, the same IEEE doubles as
    # numpy's scalars without their per-access cost; beta is rebuilt once per sweep.
    # A column with G_jj = 0 weighs inf, so the soft-threshold keeps it at 0 and never divides by
    # G_jj: its rho is 0 if the column is all zero, but not if only its squares underflow.
    diagonal, weights = squares.tolist(), np.where(squares > 0.0, penalties, np.inf).tolist()
    for _ in range(settings.max_iterations):
        coefficients = beta.tolist()
        for j in range(n_cols):
            sq, current = diagonal[j], coefficients[j]
            rho = correlation.item(j) + sq * current
            # Soft-threshold: shrink rho toward 0 by the penalty, to 0 at most; weight 0 gives rho / sq exactly.
            magnitude = abs(rho) - weights[j]
            updated = 0.0 if magnitude <= 0.0 else (magnitude if rho > 0 else -magnitude) / sq
            if updated != current:
                correlation -= (updated - current) * gram[j]
                coefficients[j] = updated
        beta = np.array(coefficients)
        # Certify from q recomputed from b, which drops the rounding error
        # the covariance updates accumulated in it.
        correlation = moment - gram @ beta
        if _kkt_from_correlation(correlation, penalties, beta, unit) <= kkt_bound:
            return beta
        candidate = _sign_pattern_step(gram, correlation, beta, penalties)
        if candidate is not None:
            beta = candidate
            correlation = moment - gram @ beta
            if _kkt_from_correlation(correlation, penalties, beta, unit) <= kkt_bound:
                return beta

    # Measured for the iterate handed back from a fresh residual, which only this failure path computes.
    A = X.values
    kkt = _kkt_from_correlation(_row_sums(A, y - A @ beta), penalties, beta, unit)
    raise ConvergenceError(
        f"coordinate descent did not converge in {settings.max_iterations} sweeps "
        f"(optimality residual {kkt:.3e}, bound {kkt_bound:.3e} from tolerance {settings.tolerance:.3e})",
        last_beta=beta,
        kkt_residual=kkt,
    )
