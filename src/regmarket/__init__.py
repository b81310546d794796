"""Regression market for lagged time-series features.

A data buyer (the central agent) fits its target on lagged features from
itself and from data sellers (support agents). Sellers price each offered
feature with a reservation value; clearing converts reservations into
per-feature lasso penalties, solves the weighted lasso, and pays each
seller the absolute product of its reservation and the cleared coefficient.
The buyer's cleared loss plus all payments never exceeds its own-features
baseline loss.
"""

from .errors import ConvergenceError, InvalidInputError, ViabilityError
from .regression import (
    DesignMatrix,
    NormalEquations,
    SolverSettings,
    kkt_violation,
    mse,
    ols_fit,
    weighted_lasso_fit,
)
from .timeseries import (
    AgentSeries,
    LagSpec,
    SyntheticSpec,
    build_lag_matrix,
    synthetic_market_series,
)
from .market import (
    MarketConfig,
    MarketOutcome,
    PreparedMarket,
    ViabilityCheck,
    ReservationSchedule,
    VIABILITY_TOLERANCE,
    clear_market,
    penalties_from_reservations,
    verify_buyer_viability,
)
from .data_io import (
    OUTCOME_COLUMNS,
    CsvSource,
    IngestReport,
    ScenarioConfig,
    TwoAgentGrid,
    ZonalDataset,
    ingest_csv,
    load_scenario,
    to_agent_series,
    write_outcome_table,
    write_rows,
    write_zonal_csv,
)
from .experiments import (
    ExperimentReport,
    materialize_series,
    run_clearing,
    run_T_sweep,
    run_method_comparison,
    run_two_agent_grid,
    run_u_sweep,
)

__version__ = "0.1.0"
