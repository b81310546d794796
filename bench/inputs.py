"""Seeded benchmark inputs: scenario JSON files and the 3-year zonal CSV.

Nothing here imports ``regmarket``: the benchmark hands the package only the
files written by this module, the way an analyst would.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

# Paper-scale synthetic market: buyer P1 plus 14 AR(1) sellers whose
# persistence spans 0.6-0.95. P1 loads at lag 1 on six of them, with
# falling weights, and on none of the other eight.
PAPER_SELLERS = 14
PAPER_PHI = tuple(round(float(phi), 4) for phi in np.linspace(0.6, 0.95, PAPER_SELLERS))
PAPER_LOADED = (0, 2, 5, 8, 10, 13)  # seller positions P1 loads on
PAPER_WEIGHTS = (0.5, 0.4, 0.3, 0.2, 0.15, 0.1)
PAPER_U_GRID = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)

# 3-year hourly zonal CSV: zone Z01 is the buyer, Z02-Z15 the sellers.
CSV_ZONES = tuple(f"Z{k:02d}" for k in range(1, 16))
CSV_HOURS = 3 * 8760
CSV_START = datetime(2019, 1, 1)
CSV_T_GRID = (1000, 2000, 4380, 8760, 17520)
CSV_MAX_LAG = 6
CSV_PHI = (0.85, 0.97)  # seller persistence range
CSV_U = 0.001
CSV_BLANK_ROWS = 6  # rows with one blank cell, all after the longest window


def _cross(n_sellers, loaded, weights):
    cross = [0.0] * n_sellers
    for position, weight in zip(loaded, weights):
        cross[position] = weight
    return cross


def paper_u_scenario(seed: int) -> dict:
    cross = _cross(PAPER_SELLERS, PAPER_LOADED, PAPER_WEIGHTS)
    return {
        "scenario_id": "paper-u",
        "seed": seed,
        "data": {
            "type": "synthetic",
            "n_independent": PAPER_SELLERS,
            "ar_coefficients": list(PAPER_PHI),
            "noise_std": [1.0] * PAPER_SELLERS,
            "cross_coefficients": cross,
            "dependent_phi": 0.3,
            "dependent_noise_std": 0.5,
        },
        "market": {"central_agent": "P1", "max_lag": 6, "window": 8760},
        "reservations": {"uniform_u": 0.02},
        "sweeps": {
            "u_grid": list(PAPER_U_GRID),
            "grid2": {
                "agent_a": "P2",
                "agent_b": "P4",
                "u_grid_a": [0.005, 0.02, 0.05],
                "u_grid_b": [0.005, 0.02, 0.05],
                "others_u": 0.02,
            },
        },
    }


def small_many_scenario(seed: int) -> dict:
    """The README's default scenario."""
    return {
        "scenario_id": "synthetic-default",
        "seed": seed,
        "data": {
            "type": "synthetic",
            "n_independent": 4,
            "ar_coefficients": [0.5, 0.3, 0.3, 0.3],
            "noise_std": [0.4, 1.0, 1.0, 2.0],
            "cross_coefficients": [0.4, 0.3, 0.2, 0.1],
            "dependent_phi": 0.2,
            "dependent_noise_std": 0.3,
        },
        "market": {
            "central_agent": "P1",
            "support_agents": ["P2", "P3", "P4", "P5"],
            "max_lag": 3,
            "window": 240,
            "tolerance": 1e-8,
            "max_iterations": 10000,
        },
        "reservations": {"uniform_u": 0.1},
        "sweeps": {
            "u_grid": [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0],
            "t_grid": [240, 480, 960, 2000],
            "grid2": {
                "agent_a": "P2",
                "agent_b": "P3",
                "u_grid_a": [0.05, 0.1, 0.2],
                "u_grid_b": [0.05, 0.1, 0.2],
                "others_u": 0.1,
            },
        },
    }


def csv_t_scenario(seed: int, csv_path: Path) -> dict:
    return {
        "scenario_id": "csv-t",
        "seed": seed,
        "data": {"type": "csv", "path": str(csv_path), "normalization": "per-zone-max"},
        "market": {"central_agent": "Z01", "max_lag": CSV_MAX_LAG, "window": CSV_T_GRID[0]},
        "reservations": {"uniform_u": CSV_U},
        "sweeps": {"t_grid": list(CSV_T_GRID)},
    }


def write_zonal_csv(path: Path, seed: int) -> dict:
    """Write the 3-year, 15-zone CSV for ``seed``; return what ingest should report.

    Zones are zero-mean AR(1) anomalies: sellers with persistence 0.85-0.97,
    and a buyer that loads at lag 1 on four of them. (A large common offset,
    as raw power output has, makes the intercept nearly collinear with every
    lag and the solve many times slower.) A few rows after the longest
    training window get one blank cell each, so ingest drops them without
    breaking any window.
    """
    rng = np.random.default_rng(seed)
    n_sellers = len(CSV_ZONES) - 1
    phi = np.linspace(*CSV_PHI, n_sellers)
    burn_in = 200
    noise = rng.normal(0.0, 1.0, (burn_in + CSV_HOURS, len(CSV_ZONES)))
    cross = np.array(_cross(n_sellers, (0, 3, 7, 11), (0.5, 0.35, 0.2, 0.1)))
    values = np.empty((burn_in + CSV_HOURS, len(CSV_ZONES)))
    state = np.zeros(len(CSV_ZONES))
    for t in range(burn_in + CSV_HOURS):
        sellers = phi * state[1:] + noise[t, 1:]
        buyer = 0.4 * state[0] + cross @ state[1:] + 0.5 * noise[t, 0]
        state = np.concatenate(([buyer], sellers))
        values[t] = state
    values = values[burn_in:]

    first_blank = 1 + CSV_MAX_LAG + max(CSV_T_GRID) + 24
    blank_rows = sorted(rng.choice(np.arange(first_blank, CSV_HOURS - 1), CSV_BLANK_ROWS, replace=False))
    blank_cells = {int(row): int(rng.integers(len(CSV_ZONES))) for row in blank_rows}

    lines = ["timestamp," + ",".join(CSV_ZONES)]
    for row in range(CSV_HOURS):
        cells = [f"{v:.4f}" for v in values[row]]
        if row in blank_cells:
            cells[blank_cells[row]] = ""
        stamp = (CSV_START + timedelta(hours=row)).isoformat()
        lines.append(stamp + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    first_hour = CSV_START.toordinal() * 24
    return {
        "zones": CSV_ZONES,
        "hours": CSV_HOURS - len(blank_cells),
        "first_hour": first_hour,
        "last_hour": first_hour + CSV_HOURS - 1,
        "dropped": len(blank_cells),
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]
