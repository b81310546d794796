"""Command-line harness around the experiment runners.

Exit codes: 0 success, 2 bad input or configuration, 3 solver
non-convergence, 4 internal buyer-viability violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .data_io import (
    ZonalDataset,
    ingest_csv,
    load_scenario,
    write_outcome_table,
    write_rows,
    write_zonal_csv,
)
from .errors import ConvergenceError, InvalidInputError, ViabilityError
from .experiments import (
    materialize_series,
    run_T_sweep,
    run_method_comparison,
    run_two_agent_grid,
    run_u_sweep,
)
from .market import clear_market
from .market import verify_buyer_viability  # noqa: F401  (name patched by bench/tracer.py)
from .regression import SolverSettings
from .timeseries import LagSpec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VIABILITY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmarket",
        description="Clear and study a weighted-lasso regression market over lagged time-series features.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON file")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--out", default=None, help="override the scenario output directory")
    common.add_argument("--max-lag", type=int, default=None, help="override the maximum lag D")
    common.add_argument("--window", type=int, default=None, help="override the training window T")
    common.add_argument("--tolerance", type=float, default=None, help="override the solver tolerance")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="generate the synthetic series and write them as CSV")
    sub.add_parser("clear", parents=[common], help="run a single market clearing")
    sub.add_parser("compare-methods", parents=[common], help="fit OLS-self, OLS-all and the weighted lasso side by side")
    sub.add_parser("sweep-u", parents=[common], help="one clearing per reservation level in the scenario's u_grid")
    sub.add_parser("sweep-t", parents=[common], help="one clearing per training length in the scenario's t_grid")
    sub.add_parser("grid-2", parents=[common], help="clear every reservation combination for two focal sellers")
    ingest = sub.add_parser("ingest", parents=[common], help="validate a zonal CSV and report ingestion statistics")
    ingest.add_argument("--write-clean", action="store_true", help="also write the ingested data back out as CSV")
    return parser


def _apply_overrides(scenario, args):
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.max_lag is not None or args.window is not None:
        updates["lag_spec"] = LagSpec(
            max_lag=args.max_lag if args.max_lag is not None else scenario.lag_spec.max_lag,
            window_length=args.window if args.window is not None else scenario.lag_spec.window_length,
        )
    if args.tolerance is not None:
        updates["solver"] = SolverSettings(
            tolerance=args.tolerance, max_iterations=scenario.solver.max_iterations
        )
    if updates:
        scenario = dataclasses.replace(scenario, **updates)
    return scenario


def _out_dir(scenario) -> Path:
    out = Path(scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(scenario) -> int:
    if scenario.synthetic is None:
        raise InvalidInputError("simulate needs a synthetic data source")
    series = materialize_series(scenario)
    dataset = ZonalDataset(
        zones=[s.agent_id for s in series],
        timestamps=range(series[0].values.shape[0]),
        values=np.column_stack([s.values for s in series]),
    )
    out = _out_dir(scenario) / "series.csv"
    write_zonal_csv(dataset, out)
    print(f"wrote {len(series)} agent series of {series[0].values.shape[0]} hours to {out}")
    return EXIT_OK


def _cmd_clear(scenario) -> int:
    series = materialize_series(scenario)
    config = scenario.market_config([s.agent_id for s in series])
    schedule = scenario.schedule(config.support_agents)
    outcome = clear_market(config, series, schedule)
    out = _out_dir(scenario) / "clearing.csv"
    write_outcome_table([("clearing", "", outcome)], out)
    print(
        f"baseline mse {outcome.baseline_loss.mse:.6g}, market mse {outcome.market_loss.mse:.6g}, "
        f"payments {outcome.total_payments:.6g}, buyer net gain {outcome.buyer_net_gain:.6g}"
    )
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_compare(scenario) -> int:
    report = run_method_comparison(scenario)
    out = _out_dir(scenario) / "method_comparison.csv"
    write_rows(out, ("agent", "lag", "true", "ols_self", "ols_all", "lasso"), report.coefficient_rows)
    print(f"wrote coefficient comparison for {len(report.coefficient_rows)} features to {out}")
    return EXIT_OK


def _cmd_sweep_u(scenario) -> int:
    report = run_u_sweep(scenario)
    out = _out_dir(scenario) / "u_sweep.csv"
    write_outcome_table(report.sweep_rows, out)
    print(f"wrote {len(report.sweep_rows)} clearings to {out}")
    return EXIT_OK


def _cmd_sweep_t(scenario) -> int:
    report = run_T_sweep(scenario)
    out = _out_dir(scenario) / "t_sweep.csv"
    write_outcome_table(report.sweep_rows, out)
    per_step = _out_dir(scenario) / "t_sweep_per_step.csv"
    write_rows(
        per_step,
        ("T", "agent", "payment", "payment_per_step", "buyer_net_gain"),
        report.derived_rows,
    )
    print(f"wrote {len(report.sweep_rows)} clearings to {out} and per-step payments to {per_step}")
    return EXIT_OK


def _cmd_grid2(scenario) -> int:
    report = run_two_agent_grid(scenario)
    out = _out_dir(scenario) / "u_grid2.csv"
    write_outcome_table(report.sweep_rows, out)
    print(
        f"wrote {len(report.sweep_rows)} clearings to {out} "
        f"(cross-monotonicity: a in b {report.summary['a_payment_nonincreasing_in_b_frac']:.2f}, "
        f"b in a {report.summary['b_payment_nonincreasing_in_a_frac']:.2f})"
    )
    return EXIT_OK


def _cmd_ingest(scenario, write_clean: bool) -> int:
    if scenario.csv_path is None:
        raise InvalidInputError("ingest needs a csv data source")
    report = ingest_csv(
        scenario.csv_path,
        schema=scenario.csv_schema,
        normalization=scenario.csv_normalization,
    )
    dataset = report.dataset
    print(
        f"zones {', '.join(map(str, dataset.zones))}; {dataset.n_hours} hours "
        f"({dataset.timestamps[0]}..{dataset.timestamps[-1]}); dropped {report.dropped_rows} rows"
    )
    for warning in report.warnings:
        print(f"warning: {warning}")
    if write_clean:
        out = _out_dir(scenario) / "ingested.csv"
        write_zonal_csv(dataset, out)
        print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = _apply_overrides(load_scenario(args.config), args)
        if args.command == "simulate":
            return _cmd_simulate(scenario)
        if args.command == "clear":
            return _cmd_clear(scenario)
        if args.command == "compare-methods":
            return _cmd_compare(scenario)
        if args.command == "sweep-u":
            return _cmd_sweep_u(scenario)
        if args.command == "sweep-t":
            return _cmd_sweep_t(scenario)
        if args.command == "grid-2":
            return _cmd_grid2(scenario)
        if args.command == "ingest":
            return _cmd_ingest(scenario, args.write_clean)
        raise InvalidInputError(f"unknown command {args.command!r}")
    except (InvalidInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ViabilityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VIABILITY


if __name__ == "__main__":
    sys.exit(main())
