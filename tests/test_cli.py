import json
import subprocess
import sys
from datetime import datetime, timedelta

import numpy as np
import pytest

from regmarket.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_VIABILITY, main
from regmarket.errors import ViabilityError


def write_scenario(tmp_path, name="scenario.json", **overrides):
    payload = {
        "scenario_id": "cli-test",
        "seed": 5,
        "out_dir": str(tmp_path / "results"),
        "data": {"type": "synthetic"},
        "market": {"central_agent": "P1", "max_lag": 2, "window": 120},
        "reservations": {"uniform_u": 0.1},
        "sweeps": {
            "u_grid": [0.0, 0.05, 0.2],
            "t_grid": [60, 120],
            "grid2": {
                "agent_a": "P2",
                "agent_b": "P3",
                "u_grid_a": [0.05, 0.2],
                "u_grid_b": [0.05, 0.2],
            },
        },
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "regmarket", *args],
        capture_output=True,
        text=True,
    )


class TestSubcommands:
    def test_simulate(self, tmp_path):
        config = write_scenario(tmp_path)
        result = run_cli("simulate", "--config", str(config))
        assert result.returncode == EXIT_OK, result.stderr
        series_csv = tmp_path / "results" / "series.csv"
        assert series_csv.exists()
        header = series_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "timestamp,P1,P2,P3,P4,P5"

    def test_clear(self, tmp_path):
        config = write_scenario(tmp_path)
        result = run_cli("clear", "--config", str(config))
        assert result.returncode == EXIT_OK, result.stderr
        assert "buyer net gain" in result.stdout
        assert (tmp_path / "results" / "clearing.csv").exists()

    def test_compare_methods(self, tmp_path):
        config = write_scenario(tmp_path)
        result = run_cli("compare-methods", "--config", str(config))
        assert result.returncode == EXIT_OK, result.stderr
        table = tmp_path / "results" / "method_comparison.csv"
        lines = table.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "agent,lag,true,ols_self,ols_all,lasso"
        assert len(lines) == 1 + 5 * 2  # five agents, two lags

    def test_sweep_u(self, tmp_path):
        config = write_scenario(tmp_path)
        result = run_cli("sweep-u", "--config", str(config))
        assert result.returncode == EXIT_OK, result.stderr
        assert (tmp_path / "results" / "u_sweep.csv").exists()

    def test_sweep_t(self, tmp_path):
        config = write_scenario(tmp_path)
        result = run_cli("sweep-t", "--config", str(config))
        assert result.returncode == EXIT_OK, result.stderr
        assert (tmp_path / "results" / "t_sweep.csv").exists()
        per_step = tmp_path / "results" / "t_sweep_per_step.csv"
        assert per_step.read_text(encoding="utf-8").startswith("T,agent,payment")

    def test_grid2(self, tmp_path):
        config = write_scenario(tmp_path)
        result = run_cli("grid-2", "--config", str(config))
        assert result.returncode == EXIT_OK, result.stderr
        assert (tmp_path / "results" / "u_grid2.csv").exists()

    def test_ingest(self, tmp_path):
        csv_path = tmp_path / "wind.csv"
        rows = ["timestamp,DK1,DK2"] + [f"{100 + t},{1.0 + t},{2.0 + t}" for t in range(30)]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_scenario(
            tmp_path,
            data={"type": "csv", "path": str(csv_path)},
            market={"central_agent": "DK1", "max_lag": 2, "window": 10},
        )
        result = run_cli("ingest", "--config", str(config))
        assert result.returncode == EXIT_OK, result.stderr
        assert "30 hours" in result.stdout
        assert "dropped 0 rows" in result.stdout
        result = run_cli("ingest", "--config", str(config), "--write-clean")
        assert result.returncode == EXIT_OK, result.stderr
        cleaned = tmp_path / "results" / "ingested.csv"
        assert cleaned.read_text(encoding="utf-8").startswith("timestamp,DK1,DK2")

    def test_ingest_write_clean_keeps_hours(self, tmp_path, capsys):
        from regmarket.data_io import ingest_csv

        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 2)) * (1e-3, 1e5)
        rows = ["timestamp,DK1,DK2"]
        for t, (a, b) in enumerate(values.tolist()):
            stamp = (datetime(2021, 3, 1) + timedelta(hours=t)).isoformat()
            rows.append(f"{stamp},{a!r},{'' if t in (17, 18, 30) else repr(b)}")
        source = tmp_path / "wind.csv"
        source.write_text("\n".join(rows) + "\n", encoding="utf-8")
        market = {"central_agent": "DK1", "max_lag": 2, "window": 10}
        config = write_scenario(tmp_path, data={"type": "csv", "path": str(source)}, market=market)
        assert main(["ingest", "--config", str(config), "--write-clean"]) == EXIT_OK
        cleaned = tmp_path / "results" / "ingested.csv"

        before = ingest_csv(source).dataset
        after = ingest_csv(cleaned).dataset
        assert after.zones == before.zones
        assert after.timestamps.tobytes() == before.timestamps.tobytes()
        assert after.values.tobytes() == before.values.tobytes()

        # Hours 12..23 hold the window plus its lags; hours 17 and 18 dropped.
        start = int(before.timestamps[0]) + 14
        data = {"type": "csv", "path": str(cleaned), "window_start": start}
        config = write_scenario(tmp_path, name="cleaned.json", data=data, market=market)
        capsys.readouterr()
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        assert "gap after hour" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        config = write_scenario(tmp_path)
        out = tmp_path / "elsewhere"
        result = run_cli(
            "clear", "--config", str(config), "--out", str(out),
            "--window", "90", "--seed", "9", "--max-lag", "1", "--tolerance", "1e-9",
        )
        assert result.returncode == EXIT_OK, result.stderr
        table = out / "clearing.csv"
        assert table.exists()
        data = table.read_text(encoding="utf-8").splitlines()[2:]
        assert len(data) == 4 + 1  # max lag overridden to 1: one row per seller


class TestDeterminism:
    def test_sweep_u_byte_identical_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = write_scenario(tmp_path)
        for out in (out_a, out_b):
            result = run_cli("sweep-u", "--config", str(config), "--out", str(out))
            assert result.returncode == EXIT_OK, result.stderr
        assert (out_a / "u_sweep.csv").read_bytes() == (out_b / "u_sweep.csv").read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = write_scenario(tmp_path)
        run_cli("sweep-u", "--config", str(config), "--out", str(out_a), "--seed", "1")
        run_cli("sweep-u", "--config", str(config), "--out", str(out_b), "--seed", "2")
        assert (out_a / "u_sweep.csv").read_bytes() != (out_b / "u_sweep.csv").read_bytes()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        result = run_cli("clear", "--config", str(tmp_path / "nope.json"))
        assert result.returncode == EXIT_INPUT
        assert "error:" in result.stderr

    def test_invalid_config(self, tmp_path):
        config = write_scenario(tmp_path, market={"central_agent": "P1", "max_lag": 2})
        result = run_cli("clear", "--config", str(config))
        assert result.returncode == EXIT_INPUT
        assert "window" in result.stderr

    @pytest.mark.parametrize(
        "override",
        [
            {"reservations": {"entries": [["P2", 1]]}},
            {"market": {"central_agent": "P1", "max_lag": "x", "window": 120}},
            {"sweeps": {"u_grid": 5}},
            {"seed": "abc"},
        ],
        ids=["short-entry", "non-integer-max-lag", "scalar-grid", "non-integer-seed"],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, override):
        config = write_scenario(tmp_path, **override)
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: invalid value (")
        assert not (tmp_path / "results" / "clearing.csv").exists()

    @pytest.mark.parametrize(
        ("where", "value", "key"),
        [
            (("seed",), 1.9, "seed"),
            (("seed",), True, "seed"),
            (("market", "max_lag"), 2.9, "market.max_lag"),
            (("market", "window"), 10.5, "market.window"),
            (("market", "max_iterations"), 9.5, "market.max_iterations"),
            (("sweeps", "t_grid"), [10, 20.5], "t_grid"),
            (("reservations",), {"entries": [["DK2", 1.5, 0.1]]}, "reservations.entries lag"),
            (("data", "window_start"), "abc", "data.window_start"),
            (("data", "window_start"), 17689446.5, "data.window_start"),
        ],
        ids=[
            "fractional-seed",
            "bool-seed",
            "fractional-max-lag",
            "fractional-window",
            "fractional-max-iterations",
            "fractional-t-grid",
            "fractional-entry-lag",
            "text-window-start",
            "fractional-window-start",
        ],
    )
    def test_non_integer_exits_2_naming_the_key(self, tmp_path, capsys, where, value, key):
        rows = ["timestamp,DK1,DK2"]
        for t in range(40):  # hours 17689440..17689479
            stamp = (datetime(2019, 1, 1) + timedelta(hours=t)).isoformat()
            rows.append(f"{stamp},{np.sin(t)!r},{np.cos(t)!r}")
        csv_path = tmp_path / "wind.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        payload = {
            "data": {"type": "csv", "path": str(csv_path), "window_start": 17689446},
            "market": {"central_agent": "DK1", "max_lag": 2, "window": 10},
            "sweeps": {"t_grid": [10, 20]},
        }
        node = payload
        for name in where[:-1]:
            node = node[name]
        node[where[-1]] = value
        config = write_scenario(tmp_path, **payload)
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: invalid value ({key}")
        assert not (tmp_path / "results" / "clearing.csv").exists()

    def test_bad_central_agent(self, tmp_path):
        config = write_scenario(
            tmp_path, market={"central_agent": "P99", "max_lag": 2, "window": 120}
        )
        result = run_cli("clear", "--config", str(config))
        assert result.returncode == EXIT_INPUT

    def test_non_convergence(self, tmp_path):
        config = write_scenario(
            tmp_path,
            market={
                "central_agent": "P1",
                "max_lag": 2,
                "window": 120,
                "tolerance": 1e-13,
                "max_iterations": 1,
            },
        )
        result = run_cli("clear", "--config", str(config))
        assert result.returncode == EXIT_NO_CONVERGENCE
        assert "converge" in result.stderr

    def test_viability_violation_maps_to_exit_4(self, tmp_path, monkeypatch):
        import regmarket.cli as cli_module

        config = write_scenario(tmp_path)

        def explode(scenario):
            raise ViabilityError("forced for testing", market_side=2.0, baseline_side=1.0)

        monkeypatch.setattr(cli_module, "run_u_sweep", explode)
        code = main(["sweep-u", "--config", str(config)])
        assert code == EXIT_VIABILITY

    def test_failed_viability_check_maps_to_exit_4(self, tmp_path, monkeypatch, capsys):
        import regmarket.market as market_module

        config = write_scenario(tmp_path)
        monkeypatch.setattr(
            market_module, "weighted_lasso_fit", lambda X, y, penalties, settings: np.zeros(X.n_cols)
        )
        code = main(["clear", "--config", str(config)])
        assert code == EXIT_VIABILITY
        assert "solver defect" in capsys.readouterr().err
        assert not (tmp_path / "results" / "clearing.csv").exists()

    def test_simulate_requires_synthetic_source(self, tmp_path):
        csv_path = tmp_path / "wind.csv"
        csv_path.write_text("timestamp,DK1\n1,2.0\n", encoding="utf-8")
        config = write_scenario(
            tmp_path,
            data={"type": "csv", "path": str(csv_path)},
            market={"central_agent": "DK1", "max_lag": 1, "window": 1},
        )
        result = run_cli("simulate", "--config", str(config))
        assert result.returncode == EXIT_INPUT
