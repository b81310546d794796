"""Every fit and every clearing is certified by a duality gap computed outside the package.

``oracles.duality_gap`` builds a dual point from a fit's residual and the raw
arrays alone. A fit's gap bounds how far its objective is above the optimum,
and the baseline fit is feasible for the market's lasso, so a clearing's
viability gap (loss plus payments minus the baseline loss) can exceed its
duality gap by rounding only.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regmarket import (
    AgentSeries,
    DesignMatrix,
    LagSpec,
    MarketConfig,
    PreparedMarket,
    ReservationSchedule,
    penalties_from_reservations,
    verify_buyer_viability,
    weighted_lasso_fit,
)

from conftest import COLLINEAR, with_collinear_columns
from oracles import duality_gap

# The gap is a difference of sums of T products, so it carries rounding of
# the order of eps times the mean squares of the target and of |X||b|. On
# 30,000 random fits like these the largest gap was 350 times that level.
ROUNDING_MULTIPLE = 1e4


def rounding_level(A, y, beta):
    """eps times the mean square of the target and of |A||b|."""
    scale = np.abs(A) @ np.abs(beta)
    return np.finfo(float).eps * float(y @ y + scale @ scale) / A.shape[0]


def box_rounding(A, y, penalties, beta):
    """What the oracle's box scaling adds to the gap of a fit optimal to rounding.

    A_j'r carries rounding of order eps |A_j|'(|y| + |A||b|), so on a column
    whose penalty p_j is not much larger, |A_j'r| / p_j exceeds 1 by that
    over p_j, and dividing the dual point by it lowers the dual by that
    fraction of r'Ab = sum_j p_j |b_j|. Of 3,000 random fits like those
    below, 1,122 had a priced nonzero coefficient; on those it was a median
    1.6e-4 of ``ROUNDING_MULTIPLE`` times the rounding level and exceeded it
    on one.
    """
    scale = np.abs(A).T @ (np.abs(y) + np.abs(A) @ np.abs(beta))
    priced = penalties > 0.0
    if not np.any(priced):
        return 0.0
    amplification = float(np.max(scale[priced] / penalties[priced]))
    return np.finfo(float).eps * amplification * (2.0 / A.shape[0]) * float(penalties @ np.abs(beta))


PRICE_SCALE = st.sampled_from([0.0, 1e-3, 1e-2, 1e-1, 1.0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(6, 60),
    n_features=st.integers(1, 5),
    kinds=COLLINEAR,
    price_scale=PRICE_SCALE,
    warm=st.booleans(),
)
# A seller's penalty of 2.1e-8 on an active coefficient: the fit's KKT
# residual is 1e-15, but A_j'r exceeds p_j by 6e-7 of it through rounding,
# and the box scaling alone puts the gap at 7e-10.
@example(seed=5, n_rows=31, n_features=5, kinds=["scaled-duplicate"] * 3, price_scale=1e-3, warm=False)
def test_every_fit_has_a_gap_at_rounding_level(seed, n_rows, n_features, kinds, price_scale, warm):
    rng = np.random.default_rng(seed)
    features = with_collinear_columns(rng, [rng.normal(size=n_rows) for _ in range(n_features)], kinds)
    A = np.column_stack([np.ones(n_rows), *features])
    design = DesignMatrix(A, (None, *(("A", j) for j in range(1, A.shape[1]))))
    y = A @ rng.normal(size=A.shape[1]) + rng.uniform(0.01, 1.0) * rng.normal(size=n_rows)
    penalties = (n_rows / 2.0) * price_scale * rng.uniform(size=A.shape[1])
    penalties[: 1 + int(rng.integers(0, n_features + 1))] = 0.0  # the intercept and any free features
    start = rng.normal(size=A.shape[1]) if warm else None
    given_start = None if start is None else start.copy()

    beta = weighted_lasso_fit(design, y, penalties, start=start)

    slack = ROUNDING_MULTIPLE * rounding_level(A, y, beta) + box_rounding(A, y, penalties, beta)
    assert duality_gap(A, y, penalties, beta) <= slack
    if warm:
        assert start.tobytes() == given_start.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sellers=st.integers(1, 3),
    max_lag=st.integers(1, 3),
    window=st.integers(8, 60),
    kinds=COLLINEAR,
    price_scale=PRICE_SCALE,
    warm=st.booleans(),
)
# Nine rows and eleven columns, a constant seller and an intercept: the first
# active block is square and near singular (condition number 1e8), and the
# step drops two of its columns. Downdating its inverse left a gap of 8e-10.
@example(seed=9, n_sellers=3, max_lag=2, window=9, kinds=["constant"], price_scale=0.01, warm=False)
def test_every_clearing_is_viable_within_its_gap(seed, n_sellers, max_lag, window, kinds, price_scale, warm):
    rng = np.random.default_rng(seed)
    length = max_lag + window
    sellers = with_collinear_columns(rng, [rng.normal(size=length) for _ in range(n_sellers)], kinds)
    buyer = rng.normal(size=length)
    buyer[1:] += sum(rng.normal() * seller[:-1] for seller in sellers)
    ids = [f"P{k}" for k in range(1, len(sellers) + 2)]
    roster = [AgentSeries(agent, values, start_time=max_lag) for agent, values in zip(ids, [buyer, *sellers])]
    market = PreparedMarket(MarketConfig("P1", None, LagSpec(max_lag, window)), roster)
    schedule = ReservationSchedule(
        {(agent, lag): price_scale * float(rng.uniform()) for agent in ids[1:] for lag in range(1, max_lag + 1)}
    )
    start = rng.normal(size=market.design_all.n_cols) if warm else None

    outcome = market.clear(market.prices(schedule), start)

    A, y, beta = market.design_all.values, market.target, outcome.market_beta
    penalties = penalties_from_reservations(market, outcome.prices)
    gap = duality_gap(A, y, penalties, beta)
    slack = ROUNDING_MULTIPLE * rounding_level(A, y, beta) + box_rounding(A, y, penalties, beta)
    assert gap <= slack
    assert verify_buyer_viability(outcome).gap <= gap + slack
