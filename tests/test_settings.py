"""Every integer and real setting is checked by the constructor that owns it.

The scenario loader reaches each setting through one JSON key, so a value a
constructor rejects must also be rejected by ``load_scenario``, naming that
key and the file.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regmarket import (
    InvalidInputError,
    LagSpec,
    MarketConfig,
    ReservationSchedule,
    SolverSettings,
    SyntheticSpec,
    load_scenario,
)
from regmarket.data_io import ScenarioConfig, TwoAgentGrid

SCENARIO = {
    "scenario_id": "settings",
    "seed": 1,
    "data": {"type": "synthetic"},
    "market": {"central_agent": "P1", "max_lag": 2, "window": 40},
    "reservations": {"uniform_u": 0.1},
    "sweeps": {
        "u_grid": [0.0, 0.1],
        "t_grid": [20, 40],
        "grid2": {"agent_a": "P2", "agent_b": "P3", "u_grid_a": [0.1], "u_grid_b": [0.1]},
    },
}
GRID2 = SCENARIO["sweeps"]["grid2"]
CSV_DATA = {"type": "csv", "path": "wind.csv"}


def scenario(**fields):
    return ScenarioConfig(scenario_id="x", market=MarketConfig("P1", None, LagSpec(1, 10)), **fields)


def four(v):
    return (v, 0.3, 0.3, 0.3)


# (field, integer?, constructor call, JSON (path, value), key named by the loader)
CASES = [
    ("max_lag", True, lambda v: LagSpec(v, 10), lambda v: (("market", "max_lag"), v), "market.max_lag"),
    ("window_length", True, lambda v: LagSpec(1, v), lambda v: (("market", "window"), v), "market.window"),
    ("tolerance", False, lambda v: SolverSettings(tolerance=v), lambda v: (("market", "tolerance"), v), "market.tolerance"),
    (
        "max_iterations",
        True,
        lambda v: SolverSettings(max_iterations=v),
        lambda v: (("market", "max_iterations"), v),
        "market.max_iterations",
    ),
    (
        "n_independent",
        True,
        lambda v: SyntheticSpec(n_independent=v),
        lambda v: (("data", "n_independent"), v),
        "data.n_independent",
    ),
    ("seed", True, lambda v: SyntheticSpec(seed=v), lambda v: (("seed",), v), "seed"),
    (
        "ar_coefficients",
        False,
        lambda v: SyntheticSpec(ar_coefficients=four(v)),
        lambda v: (("data", "ar_coefficients"), list(four(v))),
        "data.ar_coefficients",
    ),
    (
        "noise_std",
        False,
        lambda v: SyntheticSpec(noise_std=four(v)),
        lambda v: (("data", "noise_std"), list(four(v))),
        "data.noise_std",
    ),
    (
        "cross_coefficients",
        False,
        lambda v: SyntheticSpec(cross_coefficients=four(v)),
        lambda v: (("data", "cross_coefficients"), list(four(v))),
        "data.cross_coefficients",
    ),
    (
        "dependent_phi",
        False,
        lambda v: SyntheticSpec(dependent_phi=v),
        lambda v: (("data", "dependent_phi"), v),
        "data.dependent_phi",
    ),
    (
        "dependent_noise_std",
        False,
        lambda v: SyntheticSpec(dependent_noise_std=v),
        lambda v: (("data", "dependent_noise_std"), v),
        "data.dependent_noise_std",
    ),
    (
        "entries",
        True,
        lambda v: ReservationSchedule({("P2", v): 0.1}),
        lambda v: (("reservations",), {"entries": [["P2", v, 0.1]]}),
        "reservations.entries",
    ),
    (
        "entries",
        False,
        lambda v: ReservationSchedule({("P2", 1): v}),
        lambda v: (("reservations",), {"entries": [["P2", 1, v]]}),
        "reservations.entries",
    ),
    (
        "u_grid_a",
        False,
        lambda v: TwoAgentGrid("P2", "P3", (v,), (0.1,)),
        lambda v: (("sweeps", "grid2"), {**GRID2, "u_grid_a": [v]}),
        "u_grid_a",
    ),
    (
        "u_grid_b",
        False,
        lambda v: TwoAgentGrid("P2", "P3", (0.1,), (v,)),
        lambda v: (("sweeps", "grid2"), {**GRID2, "u_grid_b": [v]}),
        "u_grid_b",
    ),
    (
        "others_u",
        False,
        lambda v: TwoAgentGrid("P2", "P3", (0.1,), (0.1,), others_u=v),
        lambda v: (("sweeps", "grid2"), {**GRID2, "others_u": v}),
        "sweeps.grid2.others_u",
    ),
    (
        "csv_window_start",
        True,
        lambda v: scenario(csv_path="wind.csv", csv_window_start=v),
        lambda v: (("data",), {**CSV_DATA, "window_start": v}),
        "data.window_start",
    ),
    (
        "uniform_u",
        False,
        lambda v: scenario(synthetic=SyntheticSpec(), uniform_u=v),
        lambda v: (("reservations",), {"uniform_u": v}),
        "reservations.uniform_u",
    ),
    (
        "u_grid",
        False,
        lambda v: scenario(synthetic=SyntheticSpec(), u_grid=(v,)),
        lambda v: (("sweeps", "u_grid"), [v]),
        "u_grid",
    ),
    (
        "t_grid",
        True,
        lambda v: scenario(synthetic=SyntheticSpec(), t_grid=(v,)),
        lambda v: (("sweeps", "t_grid"), [v]),
        "t_grid",
    ),
]

NOT_A_NUMBER = st.booleans() | st.sampled_from([float("nan"), float("inf"), -float("inf")]) | st.text(max_size=4)
NOT_AN_INTEGER = NOT_A_NUMBER | st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer()
)


@pytest.mark.parametrize(
    ("field", "whole", "construct", "json_value", "key"),
    CASES,
    ids=[f"{case[0]}-{'integer' if case[1] else 'real'}" for case in CASES],
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_constructor_and_loader_reject_the_same_value(tmp_path, field, whole, construct, json_value, key, data):
    value = data.draw(NOT_AN_INTEGER if whole else NOT_A_NUMBER, label="value")
    with pytest.raises(InvalidInputError, match=f"^{field}") as caught:
        construct(value)
    assert caught.value.field == field

    payload = json.loads(json.dumps(SCENARIO))
    where, node_value = json_value(value)
    node = payload
    for name in where[:-1]:
        node = node[name]
    node[where[-1]] = node_value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(InvalidInputError) as caught:
        load_scenario(path)
    assert str(caught.value).startswith(f"{path}: invalid value ({key}")


@pytest.mark.parametrize(
    ("construct", "field"),
    [
        (lambda: LagSpec(2.5, 10), "max_lag"),
        (lambda: LagSpec(True, 10), "max_lag"),
        (lambda: SolverSettings(max_iterations=2.5), "max_iterations"),
        (lambda: SolverSettings(tolerance=True), "tolerance"),
        (lambda: ReservationSchedule({("P2", 1): True}), "entries"),
        (lambda: SyntheticSpec(seed=1.5), "seed"),
        (lambda: SyntheticSpec(noise_std=(True, 1.0, 1.0, 1.0)), "noise_std"),
        (lambda: SyntheticSpec(ar_coefficients=four(1.0)), "ar_coefficients"),
        (lambda: SyntheticSpec(dependent_phi=-1.5), "dependent_phi"),
        (lambda: SyntheticSpec(noise_std=(1.0, 1.0, 1.0, -1.0)), "noise_std"),
        (lambda: SyntheticSpec(dependent_noise_std=0), "dependent_noise_std"),
        (lambda: SyntheticSpec(n_independent=2), "n_independent"),  # the lists keep their 4-entry defaults
        (lambda: SyntheticSpec(ar_coefficients=(0.5, 0.3)), "ar_coefficients"),
        (lambda: MarketConfig("P1", "P2P3", LagSpec(1, 10)), "support_agents"),
        (lambda: MarketConfig("P1", ("P1", "P2"), LagSpec(1, 10)), "support_agents"),
        (lambda: MarketConfig("P1", ("P2", "P2"), LagSpec(1, 10)), "support_agents"),
        (lambda: scenario(synthetic=SyntheticSpec(), out_dir=None), "out_dir"),
    ],
    ids=[
        "fractional-lag",
        "bool-lag",
        "fractional-iterations",
        "bool-tolerance",
        "bool-reservation",
        "fractional-seed",
        "bool-noise-std",
        "non-stationary-ar",
        "non-stationary-dependent-phi",
        "negative-noise-std",
        "zero-dependent-noise-std",
        "n-independent-against-default-lists",
        "short-ar-coefficients",
        "string-market-roster",
        "central-in-market-roster",
        "repeated-seller-in-market-roster",
        "null-out-dir",
    ],
)
def test_constructor_rejects_naming_the_field(construct, field):
    with pytest.raises(InvalidInputError, match=f"^{field} ") as caught:
        construct()
    assert caught.value.field == field


def test_integral_numbers_are_read_as_int():
    schedule = ReservationSchedule({("P2", np.int64(1)): 0.1, ("P3", 2.0): np.float32(0.5)})
    assert schedule.entries == {("P2", 1): 0.1, ("P3", 2): 0.5}
    assert all(type(lag) is int for _, lag in schedule.entries)
    spec = LagSpec(np.int64(3), 24.0)
    assert (spec.max_lag, spec.window_length) == (3, 24)
    assert type(spec.max_lag) is type(spec.window_length) is int
