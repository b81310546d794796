"""Command-line harness around the experiment runners.

Exit codes: 0 success, 2 bad input or configuration, 3 solver
non-convergence, 4 internal buyer-viability violation; exits 3 and 4 name
the scenario file and the point that failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data_io import (
    CsvSource,
    ZonalDataset,
    ingest_csv,
    label_error,
    load_scenario,
    write_outcome_table,
    write_rows,
    write_zonal_csv,
)
from .errors import ConvergenceError, InvalidInputError, ViabilityError
from .experiments import (
    materialize_series,
    run_clearing,
    run_T_sweep,
    run_method_comparison,
    run_two_agent_grid,
    run_u_sweep,
)
from .market import clear_market, verify_buyer_viability  # noqa: F401  (names patched by bench/tracer.py)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VIABILITY = 4


def _cmd_simulate(scenario, args) -> int:
    if isinstance(scenario.data, CsvSource):
        raise InvalidInputError("simulate needs a synthetic data source")
    series = materialize_series(scenario)
    dataset = ZonalDataset(
        zones=[s.agent_id for s in series],
        timestamps=range(series[0].values.shape[0]),
        values=np.column_stack([s.values for s in series]),
    )
    out = Path(scenario.out_dir) / "series.csv"
    write_zonal_csv(dataset, out)
    print(f"wrote {len(series)} agent series of {series[0].values.shape[0]} hours to {out}")
    return EXIT_OK


def _cmd_clear(scenario, args) -> int:
    outcome = run_clearing(scenario)
    out = Path(scenario.out_dir) / "clearing.csv"
    write_outcome_table([("clearing", "", outcome)], out)
    print(
        f"baseline mse {outcome.market.baseline_mse:.6g}, market mse {outcome.market_mse:.6g}, "
        f"payments {outcome.total_payments:.6g}, buyer net gain {outcome.buyer_net_gain:.6g}"
    )
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_compare(scenario, args) -> int:
    rows = run_method_comparison(scenario)
    out = Path(scenario.out_dir) / "method_comparison.csv"
    write_rows(out, ("agent", "lag", "true", "ols_self", "ols_all", "lasso"), rows)
    print(f"wrote coefficient comparison for {len(rows)} features to {out}")
    return EXIT_OK


def _cmd_sweep_u(scenario, args) -> int:
    rows = run_u_sweep(scenario)
    out = Path(scenario.out_dir) / "u_sweep.csv"
    write_outcome_table(rows, out)
    print(f"wrote {len(rows)} clearings to {out}")
    return EXIT_OK


def _cmd_sweep_t(scenario, args) -> int:
    rows, per_step_rows = run_T_sweep(scenario)
    out = Path(scenario.out_dir) / "t_sweep.csv"
    write_outcome_table(rows, out)
    per_step = out.with_name("t_sweep_per_step.csv")
    write_rows(per_step, ("T", "agent", "payment", "payment_per_step", "buyer_net_gain"), per_step_rows)
    print(f"wrote {len(rows)} clearings to {out} and per-step payments to {per_step}")
    return EXIT_OK


def _cmd_grid2(scenario, args) -> int:
    rows, summary = run_two_agent_grid(scenario)
    out = Path(scenario.out_dir) / "u_grid2.csv"
    write_outcome_table(rows, out)
    print(
        f"wrote {len(rows)} clearings to {out} "
        f"(cross-monotonicity: a in b {summary['a_payment_nonincreasing_in_b_frac']:.2f}, "
        f"b in a {summary['b_payment_nonincreasing_in_a_frac']:.2f})"
    )
    return EXIT_OK


def _cmd_ingest(scenario, args) -> int:
    data = scenario.data
    if not isinstance(data, CsvSource):
        raise InvalidInputError("ingest needs a csv data source")
    report = ingest_csv(data.path, schema=data.schema, normalization=data.normalization)
    dataset = report.dataset
    print(
        f"zones {', '.join(map(str, dataset.zones))}; {dataset.n_hours} hours "
        f"({dataset.timestamps[0]}..{dataset.timestamps[-1]}); dropped {report.dropped_rows} rows"
    )
    for warning in report.warnings:
        print(f"warning: {warning}")
    if args.write_clean:
        out = Path(scenario.out_dir) / "ingested.csv"
        write_zonal_csv(dataset, out)
        print(f"wrote {out}")
    return EXIT_OK


# Command name -> (handler, help), for the parser and for dispatch. Handlers
# look the runners up here when called, so patching ``cli.run_*`` works.
_COMMANDS = {
    "simulate": (_cmd_simulate, "generate the synthetic series and write them as CSV"),
    "clear": (_cmd_clear, "run a single market clearing"),
    "compare-methods": (_cmd_compare, "fit OLS-self, OLS-all and the weighted lasso side by side"),
    "sweep-u": (_cmd_sweep_u, "one clearing per reservation level in the scenario's u_grid"),
    "sweep-t": (_cmd_sweep_t, "one clearing per training length in the scenario's t_grid"),
    "grid-2": (_cmd_grid2, "clear every reservation combination for two focal sellers"),
    "ingest": (_cmd_ingest, "validate a zonal CSV and report ingestion statistics"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmarket",
        description="Clear and study a weighted-lasso regression market over lagged time-series features.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON file")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--out", default=None, help="override the scenario output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (_, text) in _COMMANDS.items()
    }
    parsers["ingest"].add_argument(
        "--write-clean", action="store_true", help="also write the ingested data back out as CSV"
    )
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        scenario = load_scenario(args.config, seed=args.seed, out_dir=args.out)
        try:
            return handler(scenario, args)
        except InvalidInputError as err:
            raise label_error(err, args.config) from None
    except (InvalidInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, ViabilityError) as err:  # a sweep's error already names its point
        print(f"error: {Path(args.config)}: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(err, ConvergenceError) else EXIT_VIABILITY


if __name__ == "__main__":
    sys.exit(main())
