"""Fail when a traced benchmark run makes other than its pinned number of calls per cycle.

    python3 tools/check_layer_counts.py [--results DIR]

For each workload in ``PINS`` it reads ``DIR/<workload>-seed1-trace1.json``,
the result ``bench/run.py --workload <workload> --seed 1 --trace 1`` writes
(``DIR`` is ``.bench_work/results`` of this checkout by default), and
compares each pinned per-cycle call count with its pin. Every cycle of a
workload makes the same calls, so the counts are whole numbers, each must
equal its pin exactly, and no timing enters. A count below its pin fails
too: the tracer counts calls through module attributes, so code that stops
calling through a traced name reads fewer calls, not more. Each count off
its pin, and each missing result or metric, is printed on its own line;
the exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[1] / ".bench_work" / "results"

# Per-cycle call counts: one lasso solve per clearing; one mse (the
# baseline's) per prepared market or window and none per clearing, whose
# loss is a change from that baseline; two lag matrices per prepared market
# (the buyer's own block, which its baseline is fitted on, then the roster's
# design) and none per window; and one baseline OLS fit per prepared market
# or window. csv-t's sweep-t clears every window on row prefixes of one
# prepared market, and it and ingest read the CSV once each. The clear
# command, and no other, clears through market.clear_market, once.
PINS = {
    "paper-u": {
        "regression.weighted_lasso_fit.calls": 19,
        "regression.mse.calls": 3,
        "timeseries.build_lag_matrix.calls": 6,
        "regression.ols_fit.calls": 3,
        "market.clear_market.calls": 1,
    },
    "small-many": {
        "regression.weighted_lasso_fit.calls": 22,
        "regression.mse.calls": 7,
        "timeseries.build_lag_matrix.calls": 8,
        "regression.ols_fit.calls": 7,
        "market.clear_market.calls": 1,
    },
    "csv-t": {
        "regression.weighted_lasso_fit.calls": 5,
        "regression.mse.calls": 5,
        "timeseries.build_lag_matrix.calls": 2,
        "regression.ols_fit.calls": 5,
        "data_io.ingest_csv.calls": 2,
        "market.clear_market.calls": 0,
    },
}


def problems(results: Path) -> list:
    """One line per count off its pin, and per missing result or metric."""
    found = []
    for workload, pins in PINS.items():
        path = results / f"{workload}-seed1-trace1.json"
        if not path.is_file():
            found.append(f"{workload}: no traced result at {path}")
            continue
        metrics = json.loads(path.read_text(encoding="utf-8"))["metrics"]
        for name, pin in pins.items():
            if name not in metrics:
                found.append(f"{workload}: {name} missing from {path}")
            elif metrics[name]["value"] != pin:
                found.append(f"{workload}: {name} is {metrics[name]['value']:g} per cycle, pinned at {pin}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=RESULTS, help="directory of bench/run.py results")
    args = parser.parse_args(argv)
    lines = problems(args.results)
    for line in lines:
        print(line)
    print(f"layer counts: {len(lines)} problem(s) in {len(PINS)} workloads")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
