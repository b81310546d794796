"""Outside-in per-layer tracing of the regmarket package.

The tracer replaces public functions under the module names their callers
look them up by (``market.weighted_lasso_fit``, ``cli.clear_market``, ...)
with wrappers that record one span per call, so ``src/`` is not edited.
Spans are kept in memory as ``[name, start, end, parent, op]`` and written
once, when the run ends. Counts are taken in the same wrappers.

Solver-quality counters (KKT residual, active set) are computed after each
CLI invocation returns, outside every span, with the package's own public
functions.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module the caller lives in, attribute the caller looks up, span name).
# A function reached from two modules is patched in both, under one name.
TARGETS = (
    ("cli", "load_scenario", "data_io.load_scenario"),
    ("cli", "ingest_csv", "data_io.ingest_csv"),
    ("cli", "write_outcome_table", "data_io.write_outcome_table"),
    ("cli", "materialize_series", "experiments.materialize_series"),
    ("cli", "run_u_sweep", "experiments.run_u_sweep"),
    ("cli", "run_T_sweep", "experiments.run_T_sweep"),
    ("cli", "run_two_agent_grid", "experiments.run_two_agent_grid"),
    ("cli", "clear_market", "market.clear_market"),
    ("cli", "verify_buyer_viability", "market.verify_buyer_viability"),
    ("experiments", "materialize_series", "experiments.materialize_series"),
    ("experiments", "synthetic_market_series", "timeseries.synthetic_market_series"),
    ("experiments", "ingest_csv", "data_io.ingest_csv"),
    ("experiments", "to_agent_series", "data_io.to_agent_series"),
    ("experiments", "clear_market", "market.clear_market"),
    ("experiments", "verify_buyer_viability", "market.verify_buyer_viability"),
    ("market", "build_lag_matrix", "timeseries.build_lag_matrix"),
    ("market", "ols_fit", "regression.ols_fit"),
    ("market", "mse", "regression.mse"),
    ("market", "penalties_from_reservations", "market.penalties_from_reservations"),
    ("market", "weighted_lasso_fit", "regression.weighted_lasso_fit"),
)
ROOT = "cli.main"
LASSO = "regression.weighted_lasso_fit"


class Tracer:
    """Span recorder; patches the package while installed."""

    def __init__(self, package):
        self.package = package  # the imported regmarket package
        self.spans = []
        self.failed = defaultdict(int)
        self.rows = defaultdict(int)  # data rows read or written, per span name
        self.gaps = []  # viability gaps returned by verify_buyer_viability
        self.fits = []  # (design, target, penalties, beta) awaiting quality counters
        self.active = []
        self.kkt = []
        self.design_bytes = []
        self._stack = []
        self._op = None
        self._saved = []

    def install(self) -> None:
        for module_name, attribute, name in TARGETS:
            module = getattr(self.package, module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def call_root(self, op: int, main, argv):
        """Run ``main(argv)`` as the root span of operation ``op``."""
        self._op = op
        try:
            return self._wrap(ROOT, main)(argv)
        finally:
            self._op = None
            self._drain_fits()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self._op]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                self.failed[name] += 1
                raise
            span[2] = clock()
            stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result) -> None:
        if name == LASSO:
            design, target, penalties = args[:3]
            self.fits.append((design, target, penalties, result))
        elif name == "market.verify_buyer_viability":
            self.gaps.append(result.gap)
        elif name == "data_io.ingest_csv":
            self.rows[name] += result.dataset.n_hours + result.dropped_rows
        elif name == "data_io.write_outcome_table":
            self.rows[name] += sum(len(outcome.payments) + 1 for _, _, outcome in args[0])

    def _drain_fits(self) -> None:
        kkt_violation = self.package.regression.kkt_violation
        for design, target, penalties, beta in self.fits:
            # The buyer's own block comes first after the intercept; every
            # later column is a seller feature, penalized or not.
            buyer = design.column_map[1][0]
            sellers = [j for j, agent, _ in design.feature_columns() if agent != buyer]
            self.active.append(int(np.count_nonzero(beta[sellers])))
            self.kkt.append(kkt_violation(design, target, penalties, beta))
            self.design_bytes.append(design.n_rows * design.n_cols * 8)
        self.fits.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, separators=(",", ":")), encoding="utf-8")

    def layer_metrics(self, cycles: int, clearings: int, overhead_frac: float) -> dict:
        """Per-layer metrics over the traced spans; counts and times are per cycle."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            busy[name] += duration
            calls[name] += 1
            self_time[name] += duration
            if parent is not None:
                self_time[self.spans[parent][0]] -= duration
        total_self = sum(self_time.values())

        def per_cycle(value):
            return value / cycles

        def frac(name):
            return self_time[name] / total_self if total_self else 0.0

        ingest_busy = busy["data_io.ingest_csv"]
        metrics = {
            f"{LASSO}.calls": (per_cycle(calls[LASSO]), "1/cycle"),
            f"{LASSO}.busy_s": (per_cycle(busy[LASSO]), "s/cycle"),
            f"{LASSO}.failed": (per_cycle(self.failed[LASSO]), "1/cycle"),
            f"{LASSO}.self_frac": (frac(LASSO), "fraction"),
            f"{LASSO}.active_mean": (float(np.mean(self.active)) if self.active else 0.0, "count"),
            f"{LASSO}.kkt_max": (max(self.kkt, default=0.0), "grad"),
            f"{LASSO}.design_bytes": (float(max(self.design_bytes, default=0)), "B_computed"),
            "trace.overhead_frac": (overhead_frac, "fraction"),
            "cli.main.calls": (per_cycle(calls[ROOT]), "1/cycle"),
            "cli.main.self_s": (per_cycle(self_time[ROOT]), "s/cycle"),
            "experiments.self_s": (
                per_cycle(sum(t for n, t in self_time.items() if n.startswith("experiments."))),
                "s/cycle",
            ),
            "market.clear_market.calls": (per_cycle(calls["market.clear_market"]), "1/cycle"),
            "market.clear_market.self_s": (per_cycle(self_time["market.clear_market"]), "s/cycle"),
            "market.penalties_from_reservations.busy_s": (
                per_cycle(busy["market.penalties_from_reservations"]),
                "s/cycle",
            ),
            "market.verify_buyer_viability.calls": (
                per_cycle(calls["market.verify_buyer_viability"]),
                "1/cycle",
            ),
            "market.verify_buyer_viability.busy_s": (
                per_cycle(busy["market.verify_buyer_viability"]),
                "s/cycle",
            ),
            "market.viability_gap_max": (max(self.gaps, default=0.0), "mse"),
            "data_io.ingest_csv.calls": (per_cycle(calls["data_io.ingest_csv"]), "1/cycle"),
            "data_io.ingest_csv.busy_s": (per_cycle(ingest_busy), "s/cycle"),
            "data_io.ingest_csv.rows_per_s": (
                self.rows["data_io.ingest_csv"] / ingest_busy if ingest_busy else 0.0,
                "1/s",
            ),
            "data_io.ingest_csv.self_frac": (frac("data_io.ingest_csv"), "fraction"),
            "data_io.to_agent_series.busy_s": (per_cycle(busy["data_io.to_agent_series"]), "s/cycle"),
            "data_io.write_outcome_table.calls": (
                per_cycle(calls["data_io.write_outcome_table"]),
                "1/cycle",
            ),
            "data_io.write_outcome_table.busy_s": (
                per_cycle(busy["data_io.write_outcome_table"]),
                "s/cycle",
            ),
            "data_io.write_outcome_table.rows": (
                per_cycle(self.rows["data_io.write_outcome_table"]),
                "1/cycle",
            ),
            "data_io.load_scenario.busy_s": (per_cycle(busy["data_io.load_scenario"]), "s/cycle"),
            "experiments.materialize_series.calls": (
                per_cycle(calls["experiments.materialize_series"]),
                "1/cycle",
            ),
            "experiments.materialize_series.busy_s": (
                per_cycle(busy["experiments.materialize_series"]),
                "s/cycle",
            ),
            "timeseries.synthetic_market_series.calls": (
                per_cycle(calls["timeseries.synthetic_market_series"]),
                "1/cycle",
            ),
            "timeseries.synthetic_market_series.busy_s": (
                per_cycle(busy["timeseries.synthetic_market_series"]),
                "s/cycle",
            ),
            "timeseries.synthetic_market_series.self_frac": (
                frac("timeseries.synthetic_market_series"),
                "fraction",
            ),
            "regression.mse.calls": (per_cycle(calls["regression.mse"]), "1/cycle"),
            "regression.mse.busy_s": (per_cycle(busy["regression.mse"]), "s/cycle"),
        }
        for name in ("timeseries.build_lag_matrix", "regression.ols_fit"):
            metrics[f"{name}.calls"] = (per_cycle(calls[name]), "1/cycle")
            metrics[f"{name}.busy_s"] = (per_cycle(busy[name]), "s/cycle")
            metrics[f"{name}.calls_per_clearing"] = (
                calls[name] / clearings if clearings else 0.0,
                "1/clearing",
            )
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
