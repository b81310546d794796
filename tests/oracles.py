"""Independent reference implementations used to cross-check the package.

Nothing here shares code with the package's solvers: OLS is re-derived from
the normal equations, the univariate lasso from its closed form, and the
multivariate lasso from an accelerated proximal-gradient iteration, and a
fit's duality gap from a dual point built out of its residual. The
zonal CSV reader restates ingest row by row, cell by cell, and converts
offset-bearing stamps to hours through Unix-epoch arithmetic.
"""

import csv
from datetime import datetime, timedelta, timezone

import numpy as np

from regmarket.errors import InvalidInputError


def normal_equation_ols(A, y):
    """Solve (A'A) b = A'y with the products accumulated in long double."""
    A_hi = np.asarray(A, dtype=np.longdouble)
    y_hi = np.asarray(y, dtype=np.longdouble)
    gram = (A_hi.T @ A_hi).astype(float)
    moment = (A_hi.T @ y_hi).astype(float)
    return np.linalg.solve(gram, moment)


def long_double_products(A, y):
    """``A'A``, ``A'y`` and ``y'y`` accumulated in long double, ``A'A`` a row at a time, so no BLAS product enters."""
    A_hi = np.asarray(A, dtype=np.longdouble)
    y_hi = np.asarray(y, dtype=np.longdouble)
    gram = np.zeros((A_hi.shape[1], A_hi.shape[1]), dtype=np.longdouble)
    for row in A_hi:
        gram += np.multiply.outer(row, row)
    return gram, (A_hi * y_hi[:, None]).sum(axis=0), (y_hi * y_hi).sum()


def univariate_lasso(x, y, lam):
    """Closed-form minimizer of (1/2)||y - x b||^2 + lam |b|."""
    rho = float(x @ y)
    magnitude = max(abs(rho) - lam, 0.0)
    return float(np.sign(rho) * magnitude / (x @ x))


def prox_gradient_lasso(A, y, penalties, tol=1e-12, max_iter=500_000):
    """FISTA on (1/T)||y - A b||^2 + (2/T) sum_j penalties[j] |b_j|."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    T = A.shape[0]
    lipschitz = (2.0 / T) * float(np.linalg.eigvalsh(A.T @ A)[-1])
    step = 1.0 / lipschitz
    thresholds = step * (2.0 / T) * penalties

    beta = np.zeros(A.shape[1])
    lookahead = beta.copy()
    momentum = 1.0
    for _ in range(max_iter):
        gradient = (2.0 / T) * (A.T @ (A @ lookahead - y))
        candidate = lookahead - step * gradient
        updated = np.sign(candidate) * np.maximum(np.abs(candidate) - thresholds, 0.0)
        momentum_next = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        lookahead = updated + ((momentum - 1.0) / momentum_next) * (updated - beta)
        delta = float(np.max(np.abs(updated - beta)))
        beta = updated
        momentum = momentum_next
        if delta < tol:
            break
    return beta


def penalized_objective(A, y, penalties, beta):
    """(1/T)||y - A b||^2 + (2/T) sum_j penalties[j] |b_j|, evaluated directly."""
    A = np.asarray(A, dtype=float)
    residual = np.asarray(y, dtype=float) - A @ np.asarray(beta, dtype=float)
    T = A.shape[0]
    return float(residual @ residual) / T + (2.0 / T) * float(
        np.asarray(penalties) @ np.abs(beta)
    )


def kkt_violations(A, y, penalties, beta):
    """Each column's stationarity violation, recomputed from raw arrays, in gradient units."""
    A = np.asarray(A, dtype=float)
    beta = np.asarray(beta, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    T = A.shape[0]
    gradient = (2.0 / T) * (A.T @ (np.asarray(y, dtype=float) - A @ beta))
    thresholds = (2.0 / T) * penalties
    violations = np.zeros(A.shape[1])
    for j in range(A.shape[1]):
        if penalties[j] == 0.0:
            violations[j] = abs(gradient[j])
        elif beta[j] == 0.0:
            violations[j] = max(abs(gradient[j]) - thresholds[j], 0.0)
        else:
            violations[j] = abs(gradient[j] - thresholds[j] * np.sign(beta[j]))
    return violations


def kkt_residual(A, y, penalties, beta):
    """Largest stationarity violation, recomputed from raw arrays."""
    return float(np.max(kkt_violations(A, y, penalties, beta)))


def in_column_units(A, values):
    """``values`` (one per column of ``A``, or one for all) over each column's norm, with the
    norms summed in long double; 0 for an all-zero column."""
    norms = np.sqrt((np.asarray(A, dtype=np.longdouble) ** 2).sum(axis=0)).astype(float)
    return np.divide(values, norms, out=np.zeros(norms.shape), where=norms > 0.0)


def column_kkt_residual(A, y, penalties, beta):
    """Largest stationarity violation in column units: each column's over its norm."""
    return float(np.max(in_column_units(A, kkt_violations(A, y, penalties, beta))))


def column_kkt_bound(A, y, tolerance):
    """The certificate's bound tolerance * (2/T) max_k |A_k'y| / ||A_k||, in column units."""
    A = np.asarray(A, dtype=float)
    return tolerance * (2.0 / A.shape[0]) * float(np.max(in_column_units(A, np.abs(A.T @ np.asarray(y, dtype=float)))))


def duality_gap(A, y, penalties, beta):
    """Duality gap of ``beta`` for (1/T)||y - A b||^2 + (2/T) sum_j penalties[j] |b_j|.

    In the (1/2)||.||^2 scaling the primal is P(b) = (1/2)||y - A b||^2 +
    sum_j p_j |b_j| and the dual D(theta) = theta'y - (1/2)||theta||^2 over
    |A_j' theta| <= p_j (Kim, Koh, Lustig, Boyd & Gorinevsky, 2007). The
    dual point is the residual r = y - A b, projected off the zero-penalty
    columns Z by least squares and then scaled into the box. Weak duality
    makes P(b) - D(theta) >= 0 an upper bound on P(b) minus the optimum; it
    is returned times 2/T, in the package's objective units.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    residual = y - A @ beta
    free = penalties == 0.0
    weights, *_ = np.linalg.lstsq(A[:, free], residual, rcond=None)
    theta = residual - A[:, free] @ weights
    ratios = np.abs(A[:, ~free].T @ theta) / penalties[~free]
    theta = theta / max(1.0, float(np.max(ratios, initial=0.0)))
    primal = 0.5 * float(residual @ residual) + float(penalties @ np.abs(beta))
    dual = float(theta @ y) - 0.5 * float(theta @ theta)
    return (2.0 / A.shape[0]) * (primal - dual)


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_UNIX_EPOCH_HOUR = datetime(1970, 1, 1).toordinal() * 24
_HOUR_US = 3_600_000_000


def reference_hour(cell):
    """Hour index of a timestamp cell, or None if the cell is unusable."""
    text = cell.strip()
    if not text:
        return None
    try:
        hour = int(text)
    except ValueError:
        pass
    else:
        return hour if -(2**63) <= hour < 2**63 else None
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        return None
    if stamp.tzinfo is None:
        if stamp.minute or stamp.second or stamp.microsecond:
            return None
        return stamp.date().toordinal() * 24 + stamp.hour
    micros = (stamp - _UNIX_EPOCH) // timedelta(microseconds=1)
    if micros % _HOUR_US:
        return None
    return _UNIX_EPOCH_HOUR + micros // _HOUR_US


def reference_ingest(path, schema=None, normalization="none"):
    """Read a zonal CSV row by row: ``(zones, hours, values, dropped, warnings)``.

    Lines whose cells are all blank are skipped; any other row is dropped
    and counted when its stamp or one of its zone cells is missing, empty,
    non-numeric or non-finite; one leading byte-order mark is skipped.
    Raises InvalidInputError where ingest must.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise InvalidInputError("empty file")
    header = [name.strip() for name in rows[0]]
    if "timestamp" not in header:
        raise InvalidInputError("no timestamp column")
    ts_index = header.index("timestamp")
    if schema is None:
        schema = {name: name for name in header if name != "timestamp"}
    if any(name not in header for name in schema):
        raise InvalidInputError("schema column not in header")
    picked = sorted((header.index(name), zone) for name, zone in schema.items())
    zones = tuple(zone for _, zone in picked)
    if len(set(zones)) != len(zones) or not zones:
        raise InvalidInputError("bad zone set")

    hours, data, dropped = [], [], 0
    for row in rows[1:]:
        if all(cell.strip() == "" for cell in row):
            continue
        hour = reference_hour(row[ts_index]) if ts_index < len(row) else None
        parsed = []
        for index, _ in picked:
            cell = row[index].strip() if index < len(row) else ""
            try:
                value = float(cell)
            except ValueError:
                break
            if value != value or value in (float("inf"), float("-inf")):
                break
            parsed.append(value)
        if hour is None or len(parsed) < len(picked):
            dropped += 1
            continue
        hours.append(hour)
        data.append(parsed)

    if not hours:
        raise InvalidInputError("no usable data rows")
    if any(b <= a for a, b in zip(hours, hours[1:])):
        raise InvalidInputError("non-monotonic timestamps")
    values = np.array(data, dtype=float).reshape(len(hours), len(zones))
    if normalization == "per-zone-max":
        peaks = values.max(axis=0)
        if np.any(peaks <= 0):
            raise InvalidInputError("zone with no positive values")
        values = values / peaks
    total = len(hours) + dropped
    warnings = []
    if dropped > 0.1 * total:
        warnings.append(f"dropped {dropped} of {total} rows ({100.0 * dropped / total:.1f}%)")
    return zones, np.array(hours, dtype=np.int64), values, dropped, tuple(warnings)
