"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import subprocess
import sys
import time

import numpy as np

from regmarket import (
    LagSpec,
    MarketConfig,
    ReservationSchedule,
    SyntheticSpec,
    clear_market,
    ols_fit,
    penalties_from_reservations,
    run_T_sweep,
    run_u_sweep,
    synthetic_market_series,
    verify_buyer_viability,
    weighted_lasso_fit,
)
from regmarket.regression import SolverSettings

from conftest import make_design, random_instance
from oracles import kkt_residual, penalized_objective, prox_gradient_lasso


def verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_scenario(rng, index):
    n_agents = int(rng.integers(2, 7))
    max_lag = int(rng.integers(1, 5))
    window = int(rng.integers(50, 501))
    n_independent = n_agents - 1
    spec = SyntheticSpec(
        n_independent=n_independent,
        ar_coefficients=tuple(rng.uniform(-0.2, 0.9, n_independent)),
        noise_std=tuple(rng.uniform(0.3, 2.0, n_independent)),
        cross_coefficients=tuple(rng.uniform(-0.5, 0.5, n_independent)),
        dependent_phi=float(rng.uniform(-0.3, 0.6)),
        dependent_noise_std=float(rng.uniform(0.3, 1.5)),
        seed=int(rng.integers(0, 2**31)),
    )
    roster = synthetic_market_series(spec, history=max_lag, window=window)
    ids = [s.agent_id for s in roster]
    central = ids[index % len(ids)]
    supports = tuple(a for a in ids if a != central)
    config = MarketConfig(central, supports, LagSpec(max_lag, window))
    schedule = ReservationSchedule(
        {(a, lag): float(rng.uniform(0.0, 1.0)) for a in supports for lag in range(1, max_lag + 1)}
    )
    return config, roster, schedule


def test_criterion_1_buyer_viability_randomized_suite():
    rng = np.random.default_rng(20240501)
    started = time.time()
    worst_gap = -np.inf
    failures = []
    for index in range(100):
        config, roster, schedule = random_scenario(rng, index)
        outcome = clear_market(config, roster, schedule)
        check = verify_buyer_viability(outcome)
        worst_gap = max(worst_gap, check.gap)
        if not check.holds:
            failures.append((index, check.gap))
    elapsed = time.time() - started
    verdict(
        "criterion 1: buyer viability on 100 randomized scenarios",
        not failures and elapsed < 60.0,
        f"worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_solver_kkt_and_prox_oracle():
    rng = np.random.default_rng(42)
    tolerance = SolverSettings().tolerance
    worst_kkt = 0.0
    for _ in range(30):
        design, y, penalties = random_instance(
            rng, int(rng.integers(10, 80)), int(rng.integers(1, 7))
        )
        beta = weighted_lasso_fit(design, y, penalties)
        worst_kkt = max(worst_kkt, kkt_residual(design.values, y, penalties, beta))
    for index in range(5):  # cleared markets are converged solutions too
        config, roster, schedule = random_scenario(rng, index)
        outcome = clear_market(config, roster, schedule)
        worst_kkt = max(
            worst_kkt,
            kkt_residual(
                outcome.market.design_all.values,
                outcome.market.target,
                penalties_from_reservations(outcome.market, outcome.prices),
                outcome.market_beta,
            ),
        )
    worst_gap = 0.0
    for _ in range(25):
        design, y, penalties = random_instance(
            rng, int(rng.integers(5, 31)), int(rng.integers(1, 4))
        )
        beta = weighted_lasso_fit(design, y, penalties)
        oracle = prox_gradient_lasso(design.values, y, penalties)
        gap = abs(
            penalized_objective(design.values, y, penalties, beta)
            - penalized_objective(design.values, y, penalties, oracle)
        )
        worst_gap = max(worst_gap, gap)
    verdict(
        "criterion 2: KKT certificate and proximal-gradient oracle",
        worst_kkt <= 10 * tolerance and worst_gap <= 1e-8,
        f"worst KKT {worst_kkt:.2e} (limit {10 * tolerance:.0e}), worst objective gap {worst_gap:.2e}",
    )


def test_criterion_3_zero_penalty_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        design = make_design(rng, int(rng.integers(30, 80)), int(rng.integers(1, 6)))
        y = rng.normal(size=design.n_rows)
        beta_ols = ols_fit(design, y)
        beta_lasso = weighted_lasso_fit(design, y, np.zeros(design.n_cols))
        worst = max(worst, float(np.max(np.abs(beta_ols - beta_lasso))))
    verdict(
        "criterion 3: zero-penalty lasso equals OLS on 20 instances",
        worst <= 1e-6,
        f"worst coefficient gap {worst:.2e}",
    )


def test_criterion_4_payment_identity():
    rng = np.random.default_rng(7)
    exact = True
    coupling = True
    for index in range(10):
        config, roster, _ = random_scenario(rng, index)
        # Strictly positive reservations so zero payment must mean zero weight.
        schedule = ReservationSchedule(
            {
                (a, lag): float(rng.uniform(0.01, 1.0))
                for a in config.support_agents
                for lag in range(1, config.lag_spec.max_lag + 1)
            }
        )
        outcome = clear_market(config, roster, schedule)
        for (agent, lag), amount in zip(outcome.market.seller_features, outcome.payments):
            column = outcome.market.design_all.column_of(agent, lag)
            beta = float(outcome.market_beta[column])
            u = schedule.entries.get((agent, lag), 0.0)
            exact &= amount == abs(u * beta)
            coupling &= (amount == 0.0) == (beta == 0.0)
    verdict(
        "criterion 4: payment equals |u * coefficient| bit-exactly, zero iff unselected",
        exact and coupling,
    )


def test_criterion_5_synthetic_recovery():
    max_lag, window, u = 3, 240, 0.1
    lag = LagSpec(max_lag=max_lag, window_length=window)
    seeds = range(50)
    p1_ok = p2_ok = 0
    ols_spurious = lasso_spurious = 0
    for seed in seeds:
        spec = SyntheticSpec(seed=seed)
        roster = synthetic_market_series(spec, history=max_lag, window=window)
        ids = [s.agent_id for s in roster]

        config = MarketConfig("P1", tuple(a for a in ids if a != "P1"), lag)
        schedule = ReservationSchedule(default=u)
        outcome = clear_market(config, roster, schedule)
        design = outcome.market.design_all
        cross_lag1 = [design.column_of(a, 1) for a in config.support_agents]
        cross_deep = [design.column_of(a, l) for a in config.support_agents for l in (2, 3)]
        keep = all(outcome.market_beta[j] != 0.0 for j in cross_lag1)
        kill = all(abs(outcome.market_beta[j]) < 0.02 for j in cross_deep)
        p1_ok += keep and kill

        true_zero = cross_deep + [design.column_of("P1", 2), design.column_of("P1", 3)]
        beta_ols_all = ols_fit(design, outcome.market.target)
        ols_spurious += sum(abs(beta_ols_all[j]) > 0.02 for j in true_zero)
        lasso_spurious += sum(abs(outcome.market_beta[j]) > 0.02 for j in true_zero)

        config2 = MarketConfig("P2", tuple(a for a in ids if a != "P2"), lag)
        schedule2 = ReservationSchedule(default=u)
        outcome2 = clear_market(config2, roster, schedule2)
        support_cols = [j for j, a, _ in outcome2.market.design_all.feature_columns() if a != "P2"]
        p2_ok += all(abs(outcome2.market_beta[j]) < 0.02 for j in support_cols)

    n = len(seeds)
    verdict(
        "criterion 5: synthetic recovery at D=3, T=240 over 50 seeds",
        p1_ok >= 0.9 * n and p2_ok >= 0.9 * n and ols_spurious > lasso_spurious,
        f"P1 structure {p1_ok}/{n}, P2 independence {p2_ok}/{n}, "
        f"spurious OLS {ols_spurious / n:.2f} vs lasso {lasso_spurious / n:.2f} per seed",
    )


def _scenario_config(tmp_path, **overrides):
    from regmarket.data_io import load_scenario

    payload = {
        "scenario_id": "acceptance",
        "seed": 0,
        "out_dir": str(tmp_path / "results"),
        "data": {"type": "synthetic"},
        "market": {"central_agent": "P1", "max_lag": 3, "window": 240},
        "reservations": {"uniform_u": 0.1},
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_scenario(path)


def test_criterion_6_u_sweep_shape(tmp_path):
    grid = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    scenario = _scenario_config(tmp_path, sweeps={"u_grid": list(grid)})
    report = run_u_sweep(scenario)
    by_u = {value: outcome for _, value, outcome in report.sweep_rows}
    supports = ("P2", "P3", "P4", "P5")

    features = by_u[0.0].market.seller_features
    zero_at_origin = all(by_u[0.0].payments == 0.0)
    zero_at_endpoint = all(by_u[5.0].payments == 0.0)
    nonnegative = all(amount >= 0.0 for outcome in by_u.values() for amount in outcome.payments)
    interior_positive = all(
        max(
            sum(amount for (a, _), amount in zip(features, by_u[u].payments) if a == agent)
            for u in grid[1:-1]
        )
        > 0.0
        for agent in supports
    )
    verdict(
        "criterion 6: reservation sweep starts at zero, peaks, returns to zero",
        zero_at_origin and zero_at_endpoint and nonnegative and interior_positive,
        f"endpoints zero: {zero_at_origin and zero_at_endpoint}, interior positive for all sellers: {interior_positive}",
    )


def test_criterion_7_per_step_payment_decay(tmp_path):
    scenario = _scenario_config(tmp_path, sweeps={"t_grid": [240, 2000]})
    report = run_T_sweep(scenario)
    per_step = {}
    for _, T, outcome in report.sweep_rows:
        per_step[T] = outcome.total_payments / T
    ratio = per_step[2000] / per_step[240]
    verdict(
        "criterion 7: per-step payments at T=2000 under 25% of T=240",
        ratio < 0.25,
        f"ratio {ratio:.3f}",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    config_path = tmp_path / "scenario.json"
    payload = {
        "scenario_id": "acceptance",
        "seed": 0,
        "out_dir": str(tmp_path / "unused"),
        "data": {"type": "synthetic"},
        "market": {"central_agent": "P1", "max_lag": 3, "window": 240},
        "reservations": {"uniform_u": 0.1},
        "sweeps": {"u_grid": [0.0, 0.05, 0.1, 0.5]},
    }
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "regmarket",
                "sweep-u",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((out / "u_sweep.csv").read_bytes())
    verdict(
        "criterion 8: identical config and seed give byte-identical CSVs",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes",
    )
