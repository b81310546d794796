"""Every integer and real setting is checked by the constructor that owns it.

The scenario loader reaches each setting through one JSON key, so a value a
constructor rejects must also be rejected by ``load_scenario``, naming that
key and the file. Every array and count argument of the public API is
rejected the same way, naming the argument.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regmarket import (
    AgentSeries,
    DesignMatrix,
    InvalidInputError,
    LagSpec,
    MarketConfig,
    PreparedMarket,
    ReservationSchedule,
    SolverSettings,
    SyntheticSpec,
    kkt_violation,
    load_scenario,
    mse,
    ols_fit,
    synthetic_market_series,
    to_agent_series,
    weighted_lasso_fit,
)
from regmarket.data_io import CsvSource, ScenarioConfig, TwoAgentGrid, ZonalDataset

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


def load_csv_scenario(seed):
    """A CSV scenario file, loaded with ``seed`` in place of its own seed."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, "data": CSV_DATA}), encoding="utf-8")
        return load_scenario(path, seed=seed)


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
        "window_start",
        True,
        lambda v: scenario(data=CsvSource("wind.csv", window_start=v)),
        lambda v: (("data",), {**CSV_DATA, "window_start": v}),
        "data.window_start",
    ),
    (
        "default",
        False,
        lambda v: scenario(data=SyntheticSpec(), reservations=ReservationSchedule(default=v)),
        lambda v: (("reservations",), {"uniform_u": v}),
        "reservations.uniform_u",
    ),
    (
        "u_grid",
        False,
        lambda v: scenario(data=SyntheticSpec(), u_grid=(v,)),
        lambda v: (("sweeps", "u_grid"), [v]),
        "u_grid",
    ),
    (
        "t_grid",
        True,
        lambda v: scenario(data=SyntheticSpec(), t_grid=(v,)),
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
        (lambda: scenario(data=SyntheticSpec(), out_dir=None), "out_dir"),
        (lambda: scenario(data=SyntheticSpec(), reservations=None), "reservations"),
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
        "null-reservations",
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


# Every public entry point that takes an array or a count, with bad inputs.
X = DesignMatrix(np.column_stack([np.ones(4), np.arange(4.0)]), (None, ("A", 1)))
Y, FREE = np.arange(4.0), np.zeros(2)
DATASET = ZonalDataset(("A",), np.arange(10), np.ones((10, 1)))
MARKET = PreparedMarket(MarketConfig("P1", None, LagSpec(1, 20)), synthetic_market_series(SyntheticSpec(), 1, 20))

# (entry point, field, call, shape of a good value)
ARRAYS = [
    ("DesignMatrix", "values", lambda v: DesignMatrix(v, (None, ("A", 1))), (4, 2)),
    ("AgentSeries", "values", lambda v: AgentSeries("A", v), (4,)),
    ("ZonalDataset", "values", lambda v: ZonalDataset(("A", "B"), [0, 1, 2, 3], v), (4, 2)),
    ("ols_fit", "y", lambda v: ols_fit(X, v), (4,)),
    ("mse", "beta", lambda v: mse(X, v, Y), (2,)),
    ("mse", "y", lambda v: mse(X, FREE, v), (4,)),
    ("kkt_violation", "y", lambda v: kkt_violation(X, v, FREE, FREE), (4,)),
    ("kkt_violation", "penalties", lambda v: kkt_violation(X, Y, v, FREE), (2,)),
    ("kkt_violation", "beta", lambda v: kkt_violation(X, Y, FREE, v), (2,)),
    ("weighted_lasso_fit", "y", lambda v: weighted_lasso_fit(X, v, FREE), (4,)),
    ("weighted_lasso_fit", "penalties", lambda v: weighted_lasso_fit(X, Y, v), (2,)),
    ("weighted_lasso_fit", "start", lambda v: weighted_lasso_fit(X, Y, FREE, start=v), (2,)),
    ("PreparedMarket.clear", "prices", lambda v: MARKET.clear(v), (len(MARKET.seller_features),)),
]


def with_nan(shape):
    values = np.ones(shape)
    values.flat[-1] = np.nan
    return values


BAD_ARRAYS = {
    "strings": lambda shape: np.full(shape, "x").tolist(),
    "ragged": lambda shape: [[1.0, 2.0], [1.0]],
    "nan": with_nan,
    "wrong-shape": lambda shape: np.ones((*shape, 1)),
}

# (entry point, field, call)
COUNTS = [
    ("AgentSeries", "start_time", lambda v: AgentSeries("A", np.ones(4), start_time=v)),
    ("AgentSeries.window", "length", lambda v: AgentSeries("A", np.ones(4)).window(v)),
    ("synthetic_market_series", "history", lambda v: synthetic_market_series(SyntheticSpec(), history=v, window=3)),
    ("synthetic_market_series", "window", lambda v: synthetic_market_series(SyntheticSpec(), history=1, window=v)),
    ("to_agent_series", "start", lambda v: to_agent_series(DATASET, v, 3, 1)),
    ("to_agent_series", "window_length", lambda v: to_agent_series(DATASET, 2, v, 1)),
    ("to_agent_series", "max_lag", lambda v: to_agent_series(DATASET, 2, 3, v)),
    ("PreparedMarket.window", "length", lambda v: MARKET.window(v)),
]
BAD_COUNTS = {"bool": True, "fractional": 2.5, "string": "2"}
# (entry point, field, call, value): a count out of range, or a column_map entry that is no (agent, lag) pair.
OUT_OF_RANGE = [
    ("AgentSeries.window", "length", lambda v: AgentSeries("A", np.arange(5.0), start_time=2).window(v), -1),
    ("AgentSeries.window", "length", lambda v: AgentSeries("A", np.arange(5.0), start_time=2).window(v), 0),
    *(
        ("DesignMatrix", "column_map", lambda v: DesignMatrix(np.ones((2, 2)), (None, v)), entry)
        for entry in ("ABC", ["A", 1], "AB", ("A", 0), ("A", 1.5), (["A"], 1), ("A", 1, 2), None)
    ),
]

# Timestamps follow the integer rules entry by entry.
BAD_TIMESTAMPS = {
    "strings": "0123",
    "ragged": [[0, 1], [2]],
    "nan": [0, 1, 2, float("nan")],
    "wrong-shape": [[0], [1], [2], [3]],
    "bool": [True, 2, 3, 4],
    "fractional": [0.5, 1.5, 2.5, 3.5],
    "overflow": [1e30, 2e30, 3e30, 4e30],
}

BAD_INPUTS = [
    pytest.param(field, lambda call=call, make=make, shape=shape: call(make(shape)), id=f"{where}-{field}-{bad}")
    for where, field, call, shape in ARRAYS
    for bad, make in BAD_ARRAYS.items()
]
BAD_INPUTS += [
    pytest.param(field, lambda call=call, value=value: call(value), id=f"{where}-{field}-{bad}")
    for where, field, call in COUNTS
    for bad, value in BAD_COUNTS.items()
]
BAD_INPUTS += [
    pytest.param(field, lambda call=call, value=value: call(value), id=f"{where}-{field}-{value!r}")
    for where, field, call, value in OUT_OF_RANGE
]
BAD_INPUTS += [
    pytest.param(
        "timestamps",
        lambda value=value: ZonalDataset(("A",), value, np.ones((4, 1))),
        id=f"ZonalDataset-timestamps-{bad}",
    )
    for bad, value in BAD_TIMESTAMPS.items()
]


@pytest.mark.parametrize(("field", "call"), BAD_INPUTS)
def test_bad_array_or_count_is_rejected_naming_the_field(field, call):
    with pytest.raises(InvalidInputError) as caught:
        call()
    assert caught.value.field == field


# (where, field, name the message starts with, least, integer?, call): every setting with a least value.
ONE_SELLER = {"ar_coefficients": (0.5,), "noise_std": (1.0,), "cross_coefficients": (0.4,)}
LEAST = [
    ("LagSpec", "max_lag", "max_lag", 1, True, lambda v: LagSpec(v, 10)),
    ("LagSpec", "window_length", "window_length", 1, True, lambda v: LagSpec(1, v)),
    ("SolverSettings", "max_iterations", "max_iterations", 1, True, lambda v: SolverSettings(max_iterations=v)),
    ("SyntheticSpec", "n_independent", "n_independent", 1, True,
     lambda v: SyntheticSpec(n_independent=v, **ONE_SELLER)),
    ("SyntheticSpec", "seed", "seed", 0, True, lambda v: SyntheticSpec(seed=v)),
    ("ReservationSchedule", "entries", "entries lag", 1, True, lambda v: ReservationSchedule({("P2", v): 0.1})),
    ("ReservationSchedule", "entries", "entries u", 0, False, lambda v: ReservationSchedule({("P2", 1): v})),
    ("ReservationSchedule", "default", "default", 0, False, lambda v: ReservationSchedule(default=v)),
    ("TwoAgentGrid", "others_u", "others_u", 0, False, lambda v: TwoAgentGrid("P2", "P3", (0.1,), (0.1,), others_u=v)),
    ("TwoAgentGrid", "u_grid_a", "u_grid_a", 0, False, lambda v: TwoAgentGrid("P2", "P3", (v, 0.5), (0.1,))),
    ("TwoAgentGrid", "u_grid_b", "u_grid_b", 0, False, lambda v: TwoAgentGrid("P2", "P3", (0.1,), (v, 0.5))),
    ("ScenarioConfig", "u_grid", "u_grid", 0, False, lambda v: scenario(data=SyntheticSpec(), u_grid=(v, 0.5))),
    ("ScenarioConfig", "t_grid", "t_grid", 1, True, lambda v: scenario(data=SyntheticSpec(), t_grid=(v, 20))),
    ("load_scenario", "seed", "seed", 0, True, lambda v: load_csv_scenario(seed=v)),
    ("AgentSeries.window", "length", "length", 1, True,
     lambda v: AgentSeries("A", np.arange(5.0), start_time=2).window(v)),
    ("synthetic_market_series", "history", "history", 0, True,
     lambda v: synthetic_market_series(SyntheticSpec(), v, 3)),
    ("synthetic_market_series", "window", "window", 1, True, lambda v: synthetic_market_series(SyntheticSpec(), 1, v)),
    ("to_agent_series", "window_length", "window_length", 1, True, lambda v: to_agent_series(DATASET, 2, v, 1)),
    ("to_agent_series", "max_lag", "max_lag", 0, True, lambda v: to_agent_series(DATASET, 2, 3, v)),
]
LEAST_IDS = [f"{where}-{name.replace(' ', '-')}" for where, _, name, *_ in LEAST]


@pytest.mark.parametrize(("where", "field", "name", "least", "whole", "call"), LEAST, ids=LEAST_IDS)
def test_a_value_one_below_its_least_is_rejected_naming_the_field(where, field, name, least, whole, call):
    below = least - 1 if whole else least - 1.0
    bound = "nonnegative" if least == 0 else f"at least {least}"
    with pytest.raises(InvalidInputError) as caught:
        call(below)
    assert (str(caught.value), caught.value.field) == (f"{name} must be {bound}, got {below!r}", field)


@pytest.mark.parametrize(("where", "field", "name", "least", "whole", "call"), LEAST, ids=LEAST_IDS)
def test_a_setting_at_its_least_is_accepted(where, field, name, least, whole, call):
    call(least if whole else float(least))
