import argparse
import json
import subprocess
import sys
from datetime import datetime, timedelta

import numpy as np
import pytest

from regmarket import ScenarioConfig, SyntheticSpec, cli
from regmarket.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_VIABILITY, main
from regmarket.errors import ConvergenceError, ViabilityError

from conftest import load_module


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

    def test_ingest_warns_when_over_a_tenth_of_the_rows_drop(self, tmp_path, capsys):
        rows = ["timestamp,DK1,DK2"] + [f"{100 + t},{1.0 + t},{'' if t < 4 else 2.0}" for t in range(20)]
        csv_path = tmp_path / "wind.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        market = {"central_agent": "DK1", "max_lag": 2, "window": 10}
        config = write_scenario(tmp_path, data={"type": "csv", "path": str(csv_path)}, market=market)
        assert main(["ingest", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "zones DK1, DK2; 16 hours (104..119); dropped 4 rows\nwarning: dropped 4 of 20 rows (20.0%)\n"
        )

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
        result = run_cli("clear", "--config", str(config), "--out", str(out), "--seed", "9")
        assert result.returncode == EXIT_OK, result.stderr
        table = out / "clearing.csv"
        assert table.exists()
        data = table.read_text(encoding="utf-8").splitlines()[2:]
        assert len(data) == 4 * 2 + 1  # the scenario's max lag 2: two rows per seller
        assert all(line.startswith("clearing,,") for line in data)  # the one point, labelled with no value
        # The scenario alone sets the market: the window flag is gone.
        result = run_cli("clear", "--config", str(config), "--window", "90")
        assert result.returncode == EXIT_INPUT
        assert "unrecognized arguments: --window 90" in result.stderr

    def test_a_seed_flag_builds_the_scenario_once(self, tmp_path, monkeypatch):
        # The file has its own seed, 5; the flag's 4 replaces it before anything is built.
        built = []
        for cls in (SyntheticSpec, ScenarioConfig):

            def counting(self, post_init=cls.__post_init__):
                built.append(type(self).__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        config = write_scenario(tmp_path)
        assert main(["clear", "--config", str(config), "--seed", "4"]) == EXIT_OK
        assert built == ["SyntheticSpec", "ScenarioConfig"]


class TestCommandTable:
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_help_exits_0(self, name, capsys):
        with pytest.raises(SystemExit) as stop:
            main([name, "--help"])
        assert stop.value.code == EXIT_OK
        usage = capsys.readouterr().out
        assert all(flag in usage for flag in ("--config", "--seed", "--out"))
        assert "--window" not in usage

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(args)
            original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        config = write_scenario(tmp_path)
        for _ in range(2):
            assert main(["simulate", "--config", str(config)]) == EXIT_OK
        assert built == []


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

    def test_scenario_that_is_not_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text('{"data": ', encoding="utf-8")
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {config}: invalid JSON (")

    def test_scenario_that_is_not_utf8_exits_2_naming_the_byte(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_bytes(b'{"scenario_id": "caf\xe9"}')
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {config}: not UTF-8 text (byte 0xe9)\n"

    def test_scenario_with_a_byte_order_mark_clears_as_without(self, tmp_path, capsys):
        runs = {}
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            config = write_scenario(tmp_path, name=f"{name}.json", out_dir=str(tmp_path / name))
            config.write_bytes(mark + config.read_bytes())
            assert main(["clear", "--config", str(config)]) == EXIT_OK
            printed = capsys.readouterr().out.replace(str(tmp_path / name), "OUT")
            runs[name] = printed, (tmp_path / name / "clearing.csv").read_bytes()
        assert runs["marked"] == runs["plain"]

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
            (
                ("data",),
                {
                    "type": "synthetic",
                    "n_independent": True,  # one seller, as the lists below have one entry
                    "ar_coefficients": [0.5],
                    "noise_std": [1.0],
                    "cross_coefficients": [0.3],
                },
                "data.n_independent",
            ),
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
            "bool-n-independent",
        ],
    )
    def test_non_integer_exits_2_naming_the_key(self, tmp_path, capsys, where, value, key):
        self.assert_clear_exits_2_naming(tmp_path, capsys, where, value, key)

    @pytest.mark.parametrize(
        ("where", "value", "key"),
        [
            (("sweeps", "u_grid"), [False, True], "u_grid"),
            (("sweeps", "grid2"), {"agent_a": "DK2", "agent_b": "DK3", "u_grid_a": [True], "u_grid_b": [0.1]}, "u_grid_a"),
            (("sweeps", "grid2"), {"agent_a": "DK2", "agent_b": "DK3", "u_grid_a": [0.1], "u_grid_b": [0.1], "others_u": False}, "sweeps.grid2.others_u"),
            (("reservations",), {"uniform_u": True}, "reservations.uniform_u"),
            (("reservations",), {"entries": [["DK2", 1, True]]}, "reservations.entries u"),
            (("market", "tolerance"), True, "market.tolerance"),
            (("data",), {"type": "synthetic", "dependent_phi": False}, "data.dependent_phi"),
            (("data",), {"type": "synthetic", "noise_std": [True, 1.0, 1.0, 1.0]}, "data.noise_std"),
        ],
        ids=[
            "bool-u-grid",
            "bool-grid2-grid",
            "bool-others-u",
            "bool-uniform-u",
            "bool-entry-u",
            "bool-tolerance",
            "bool-dependent-phi",
            "bool-noise-std-entry",
        ],
    )
    def test_boolean_real_exits_2_naming_the_key(self, tmp_path, capsys, where, value, key):
        self.assert_clear_exits_2_naming(tmp_path, capsys, where, value, key)

    @pytest.mark.parametrize(
        ("where", "value", "key"),
        [
            (("sweeps", "u_grid"), [0.0, float("inf")], "u_grid"),
            (("sweeps", "grid2"), {"agent_a": "DK2", "agent_b": "DK3", "u_grid_a": [0.1], "u_grid_b": [float("nan")]}, "u_grid_b"),
            (("sweeps", "grid2"), {"agent_a": "DK2", "agent_b": "DK3", "u_grid_a": [0.1], "u_grid_b": [0.1], "others_u": float("nan")}, "sweeps.grid2.others_u"),
            (("reservations",), {"uniform_u": float("inf")}, "reservations.uniform_u"),
            (("reservations",), {"entries": [["DK2", 1, float("nan")]]}, "reservations.entries u"),
            (("data",), {"type": "synthetic", "dependent_phi": float("-inf")}, "data.dependent_phi"),
            (("data",), {"type": "synthetic", "noise_std": [1.0, 1.0, 1.0, float("inf")]}, "data.noise_std"),
            (("data",), {"type": "synthetic", "cross_coefficients": [0.4, 0.3, 0.2, float("nan")]}, "data.cross_coefficients"),
        ],
        ids=[
            "inf-u-grid",
            "nan-grid2-grid",
            "nan-others-u",
            "inf-uniform-u",
            "nan-entry-u",
            "inf-dependent-phi",
            "inf-noise-std-entry",
            "nan-cross-coefficient",
        ],
    )
    def test_non_finite_real_exits_2_naming_the_key(self, tmp_path, capsys, where, value, key):
        self.assert_clear_exits_2_naming(tmp_path, capsys, where, value, key)

    @pytest.mark.parametrize(
        ("where", "value", "key"),
        [
            (("data",), {"type": "synthetic", "dependent_phi": 1.5}, "data.dependent_phi"),
            (("data",), {"type": "synthetic", "ar_coefficients": [0.5, 0.3, -1.0, 0.3]}, "data.ar_coefficients"),
            (("data",), {"type": "synthetic", "noise_std": [1, 1, 1, -1]}, "data.noise_std"),
            (("data",), {"type": "synthetic", "dependent_noise_std": 0}, "data.dependent_noise_std"),
            (("data",), {"type": "synthetic", "n_independent": 2}, "data.n_independent"),
            (("data",), {"type": "synthetic", "ar_coefficients": [0.5, 0.3]}, "data.ar_coefficients"),
        ],
        ids=[
            "non-stationary-dependent-phi",
            "non-stationary-ar",
            "negative-noise-std",
            "zero-dependent-noise-std",
            "n-independent-against-default-lists",
            "short-ar-coefficients",
        ],
    )
    def test_out_of_range_synthetic_setting_exits_2_naming_the_key(self, tmp_path, capsys, where, value, key):
        self.assert_clear_exits_2_naming(tmp_path, capsys, where, value, key)

    @pytest.mark.parametrize(
        ("where", "value", "key"),
        [
            (("data", "path"), 5, "data.path"),
            (("data", "schema"), 5, "data.schema"),
            (("data", "schema"), {"DK1": ["a"]}, "data.schema"),
            (("data", "normalization"), 5, "data.normalization"),
            (("out_dir",), None, "out_dir"),
            (("scenario_id",), None, "scenario_id"),
        ],
        ids=["number-path", "number-schema", "list-zone-name", "number-normalization", "null-out-dir", "null-scenario-id"],
    )
    def test_bad_csv_source_exits_2_naming_the_key(self, tmp_path, capsys, where, value, key):
        self.assert_clear_exits_2_naming(tmp_path, capsys, where, value, key)

    @pytest.mark.parametrize(
        ("where", "value", "key"),
        [
            (("reservations",), {"entries": [["DK2", 1]]}, "reservations.entries"),
            (("reservations",), {"entries": 5}, "reservations.entries"),
            (("sweeps", "u_grid"), 0.1, "u_grid"),
            (("data",), {"type": "synthetic", "ar_coefficients": 0.5}, "data.ar_coefficients"),
            (("market",), [1], "market"),
            (("market", "support_agents"), "DK2", "market.support_agents"),
            (("market", "support_agents"), ["DK1", "DK2"], "market.support_agents"),
            (("market", "support_agents"), ["DK2", "DK2"], "market.support_agents"),
            (("sweeps", "grid2"), {"agent_a": "DK2", "agent_b": "DK2", "u_grid_a": [0.1], "u_grid_b": [0.1]},
             "sweeps.grid2.agent_b"),
        ],
        ids=[
            "short-entry",
            "scalar-entries",
            "scalar-u-grid",
            "scalar-ar-coefficients",
            "list-market",
            "string-roster",
            "central-in-roster",
            "repeated-seller",
            "repeated-grid2-agent",
        ],
    )
    def test_wrong_shape_exits_2_naming_the_key(self, tmp_path, capsys, where, value, key):
        self.assert_clear_exits_2_naming(tmp_path, capsys, where, value, key)

    @pytest.mark.parametrize(
        ("flags", "seed", "csv"),
        [(["--seed", "-1"], 5, False), ([], -3, False), (["--seed", "-1"], 5, True), ([], -3, True)],
        ids=["seed-flag", "scenario-seed", "seed-flag-csv", "scenario-seed-csv"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, flags, seed, csv):
        config = self.csv_scenario(tmp_path, ("seed",), seed) if csv else write_scenario(tmp_path, seed=seed)
        assert main(["clear", "--config", str(config), *flags]) == EXIT_INPUT
        assert f"seed must be nonnegative, got {flags[-1] if flags else seed}" in capsys.readouterr().err
        assert not (tmp_path / "results" / "clearing.csv").exists()

    @pytest.mark.parametrize(
        ("file_values", "flags", "message"),
        [
            ({"seed": -3}, ["--seed", "4"], "{config}: invalid value (seed must be nonnegative, got -3)"),
            ({"out_dir": 5}, ["--out", "{tmp}/x"], "{config}: invalid value (out_dir must be a string, got 5)"),
            ({}, ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ],
        ids=["file-seed-replaced", "file-out-dir-replaced", "seed-flag"],
    )
    def test_a_flag_replaces_a_checked_file_value_and_its_own_error_names_no_file(
        self, tmp_path, capsys, file_values, flags, message
    ):
        config = write_scenario(tmp_path, **file_values)
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main(["clear", "--config", str(config), *flags]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"

    @pytest.mark.parametrize("command", ["clear", "sweep-u"])
    def test_a_price_whose_penalty_overflows_exits_2_without_a_warning(self, tmp_path, command):
        # Finite, but (T/2) * u at T=120 is past the largest float.
        config = write_scenario(tmp_path, reservations={"uniform_u": 1e308}, sweeps={"u_grid": [0.0, 1e308]})
        result = run_cli(command, "--config", str(config))
        assert result.returncode == EXIT_INPUT
        assert "RuntimeWarning" not in result.stderr
        assert result.stderr.startswith(f"error: {config}: prices must be at most 2.996155224770526e+306, ")
        assert result.stderr.endswith(" at T=120 is not finite\n")

    def test_infinite_tolerance_exits_2(self, tmp_path, capsys):
        market = {"central_agent": "P1", "max_lag": 2, "window": 120, "tolerance": float("inf")}
        config = write_scenario(tmp_path, market=market)
        assert "Infinity" in config.read_text(encoding="utf-8")
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        assert "invalid value (market.tolerance must be finite, got inf)" in capsys.readouterr().err
        assert not (tmp_path / "results" / "clearing.csv").exists()

    @staticmethod
    def csv_scenario(tmp_path, where, value, missing_hour=None):
        """A CSV scenario over hours 17689440..17689479, but ``missing_hour``, with ``value`` set at path ``where``."""
        rows = ["timestamp,DK1,DK2"]
        for t in range(40):
            if t != missing_hour:
                stamp = (datetime(2019, 1, 1) + timedelta(hours=t)).isoformat()
                rows.append(f"{stamp},{float(np.sin(t))!r},{float(np.cos(t))!r}")
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
        return write_scenario(tmp_path, **payload)

    def assert_clear_exits_2_naming(self, tmp_path, capsys, where, value, key):
        """``clear`` on a CSV scenario with ``value`` set at path ``where`` exits 2 naming ``key``."""
        config = self.csv_scenario(tmp_path, where, value)
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: invalid value ({key}")
        assert not (tmp_path / "results" / "clearing.csv").exists()

    @pytest.mark.parametrize(
        ("command", "where", "value", "missing_hour", "message"),
        [
            ("clear", ("market", "window"), 40, None, "market.window 40 needs hours 17689444..17689485"),
            ("sweep-t", ("sweeps", "t_grid"), [10, 60], None, "t_grid 60 needs hours 17689444..17689505"),
            ("clear", ("data", "window_start"), 5, None, "data.window_start 5 needs hours 3..14"),
            ("sweep-t", ("data", "window_start"), 17689500, None,
             "data.window_start 17689500 needs hours 17689498..17689519"),
            ("clear", ("market", "window"), 10, 12, "market.window 10 needs hours 17689444..17689455 contiguously"),
        ],
        ids=["window-past-the-end", "longest-t-past-the-end", "start-before-the-data", "start-after-the-data",
             "window-across-a-gap"],
    )
    def test_data_window_rejection_names_the_key(self, tmp_path, capsys, command, where, value, missing_hour, message):
        config = self.csv_scenario(tmp_path, where, value, missing_hour)
        assert main([command, "--config", str(config)]) == EXIT_INPUT
        if missing_hour is None:
            available = "dataset has hours 17689440..17689479 (40 rows)"
        else:
            available = f"dataset has a gap after hour {17689440 + missing_hour - 1}"
        assert capsys.readouterr().err == f"error: {config}: invalid value ({message}, {available})\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        ("command", "where", "value", "key"),
        [
            ("clear", ("market", "support_agents"), ["P2", "P9"], "market.support_agents"),
            ("clear", ("market", "central_agent"), "P9", "market.central_agent"),
            ("grid-2", ("sweeps", "grid2", "agent_a"), "P1", "sweeps.grid2.agent_a"),
            ("clear", ("reservations", "entries"), [["P9", 1, 0.1]], "reservations.entries"),
            ("clear", ("reservations", "entries"), [["P1", 1, 0.1]], "reservations.entries"),
            ("clear", ("reservations", "entries"), [["P2", 9, 0.1]], "reservations.entries"),
            ("clear", ("reservations", "entries"), [["P1", 9, 0.0]], "reservations.entries"),
        ],
        ids=["seller-not-in-data", "buyer-not-in-data", "grid-agent-not-a-seller", "entry-agent-not-in-data",
             "entry-for-the-buyer", "entry-lag-past-max-lag", "free-buyer-entry-past-max-lag"],
    )
    def test_roster_checked_against_the_data_exits_2_naming_the_key(
        self, tmp_path, capsys, command, where, value, key
    ):
        payload = json.loads(write_scenario(tmp_path).read_text(encoding="utf-8"))
        payload["reservations"] = {"entries": [["P2", 1, 0.1]]}
        node = payload
        for name in where[:-1]:
            node = node[name]
        node[where[-1]] = value
        config = write_scenario(tmp_path, **payload)
        assert main([command, "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {config}: invalid value ({key} ")

    def test_repeated_reservation_entry_exits_2_naming_the_pair(self, tmp_path, capsys):
        # Lags 1 and 1.0 are one feature, so the second triple prices it again.
        entries = [["P2", 1, 0.1], ["P2", 1.0, 0.5], ["P3", 2, 0.2], ["P3", 2, 0.0]]
        config = write_scenario(tmp_path, reservations={"entries": entries})
        assert main(["clear", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {config}: invalid value (reservations.entries price agent 'P2' lag 1.0 more than once)\n"
        )
        assert not (tmp_path / "results").exists()

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
        assert result.stderr.startswith(f"error: {config}: coordinate descent")
        assert "converge" in result.stderr

    def test_a_certified_last_step_clears(self, tmp_path):
        # The scenario above with one more sweep: its exact step lands on an
        # iterate whose certificate holds, so the solve returns it.
        config = write_scenario(
            tmp_path,
            market={
                "central_agent": "P1",
                "max_lag": 2,
                "window": 120,
                "tolerance": 1e-13,
                "max_iterations": 2,
            },
        )
        result = run_cli("clear", "--config", str(config))
        assert result.returncode == 0, result.stderr

    def test_duplicate_zone_with_tiny_reservation_clears(self, tmp_path, capsys):
        # Zone P3 repeats zone P4 and only P3's lag 3 has an ask: the market
        # has a clear optimum (P3's lag 3 at 0), so it clears instead of
        # exiting 3.
        from regmarket import SyntheticSpec, synthetic_market_series

        roster = synthetic_market_series(SyntheticSpec(seed=2), history=3, window=240)
        columns = {series.agent_id: series.values for series in roster}
        columns["P3"] = columns["P4"]
        rows = ["timestamp," + ",".join(columns)]
        rows += [f"{t}," + ",".join(repr(float(v[t])) for v in columns.values()) for t in range(243)]
        source = tmp_path / "zones.csv"
        source.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = write_scenario(
            tmp_path,
            data={"type": "csv", "path": str(source)},
            market={"central_agent": "P1", "max_lag": 3, "window": 240},
            reservations={"entries": [["P3", 3, 6.6e-6]]},
        )
        assert main(["clear", "--config", str(config)]) == EXIT_OK, capsys.readouterr().err
        table = (tmp_path / "results" / "clearing.csv").read_text(encoding="utf-8")
        assert "P3,3,0.0," in table

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
            market_module, "weighted_lasso_fit", lambda X, y, penalties, settings, start=None, *, normal=None: np.zeros(X.n_cols)
        )
        code = main(["clear", "--config", str(config)])
        assert code == EXIT_VIABILITY
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: clearing lost the buyer money")
        assert "solver defect" in err
        assert not (tmp_path / "results" / "clearing.csv").exists()

    @pytest.mark.parametrize(
        ("command", "point"),
        [("sweep-u", "u=0.05"), ("sweep-t", "T=120"), ("grid-2", "u(P2,P3)=0.05;0.2")],
    )
    @pytest.mark.parametrize("code", [EXIT_NO_CONVERGENCE, EXIT_VIABILITY])
    def test_failing_sweep_point_is_named(self, tmp_path, monkeypatch, capsys, command, point, code):
        # The second fit of the sweep, at its second point, fails to converge
        # or returns zeros, which lose the buyer money.
        import regmarket.market as market_module

        fit, calls = market_module.weighted_lasso_fit, []

        def second_fails(X, y, penalties, settings, start=None, *, normal=None):
            calls.append(None)
            if len(calls) != 2:
                return fit(X, y, penalties, settings, start, normal=normal)
            if code == EXIT_NO_CONVERGENCE:
                raise ConvergenceError("forced for testing")
            return np.zeros(X.n_cols)

        monkeypatch.setattr(market_module, "weighted_lasso_fit", second_fails)
        config = write_scenario(tmp_path)
        assert main([command, "--config", str(config)]) == code
        assert capsys.readouterr().err.startswith(f"error: {config}: {point}: ")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "body",
        [b"101,1.\xff,2.0\n", b'101,1.0,"' + b"1" * 140_000 + b'"\n'],
        ids=["byte-0xff", "oversized-quoted-cell"],
    )
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, body):
        csv_path = tmp_path / "wind.csv"
        csv_path.write_bytes(b"timestamp,DK1,DK2\n100,1.0,2.0\n" + body)
        market = {"central_agent": "DK1", "max_lag": 2, "window": 10}
        config = write_scenario(tmp_path, data={"type": "csv", "path": str(csv_path)}, market=market)
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {config}: {csv_path}: ")

    def test_ingest_requires_a_csv_source(self, tmp_path, capsys):
        config = write_scenario(tmp_path)
        assert main(["ingest", "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {config}: ingest needs a csv data source\n"

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
        assert result.stderr == f"error: {config}: simulate needs a synthetic data source\n"

    @pytest.mark.parametrize(
        ("command", "overrides", "message"),
        [
            ("ingest", {}, "ingest needs a csv data source"),
            ("simulate", {"data": {"type": "csv", "path": "wind.csv"}}, "simulate needs a synthetic data source"),
            ("sweep-u", {"sweeps": {"t_grid": [60]}}, "u sweep needs a non-empty u_grid"),
            ("sweep-t", {"sweeps": {"u_grid": [0.0]}}, "T sweep needs a non-empty t_grid"),
            ("grid-2", {"sweeps": {"u_grid": [0.0]}}, "two-agent grid needs both agents and both grids"),
            (
                "clear",
                {"reservations": {"uniform_u": 1e308}},
                "prices must be at most 2.996155224770526e+306, above which the penalty (T/2) * u at T=120 is not finite",
            ),
        ],
        ids=["ingest-source", "simulate-source", "u-grid", "t-grid", "grid2", "price-overflow"],
    )
    def test_an_error_no_key_sets_names_the_scenario_file(self, tmp_path, capsys, command, overrides, message):
        # A runner's own check, which no scenario key's constructor makes, still names the file it read.
        config = write_scenario(tmp_path, **overrides)
        assert main([command, "--config", str(config)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {config}: {message}\n"


class TestDesignPassesPerCycle:
    """One benchmark cycle reads each buyer design once per prepared market, and no design per clearing."""

    def test_small_many_cycle_makes_one_mse_per_market_and_none_per_clearing(self, tmp_path, monkeypatch):
        import regmarket.market as market_module

        inputs = load_module("bench_inputs", "bench", "inputs.py")
        config = tmp_path / "small-many.json"
        config.write_text(json.dumps(inputs.small_many_scenario(0)), encoding="utf-8")

        calls, original = [], market_module.mse
        monkeypatch.setattr(market_module, "mse", lambda *args: calls.append(args[0]) or original(*args))
        for command in ("clear", "sweep-u", "sweep-t", "grid-2"):
            assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == EXIT_OK
        # 22 clearings (1 + 8 + 4 + 9) on 7 prepared markets (one per command,
        # and sweep-t's three shorter windows): each market's baseline MSE
        # reads its buyer design, and each clearing measures its loss from it.
        assert len(calls) == 7
        assert all(X.n_cols == 1 + 3 for X in calls)  # the intercept and the buyer's three lags


class TestLocationDoesNotDecideTheClearing:
    def test_offset_zonal_csv_clears_as_the_unshifted_one(self, tmp_path, capsys):
        # The benchmark's csv-t CSV at seed 1, and a copy with 1e4 added to every value cell, cleared
        # unnormalized at window 4380. Cleared on the raw offset sums, the market bought nothing.
        inputs = load_module("bench_inputs", "bench", "inputs.py")
        tool = load_module("compare_cli_outputs", "tools", "compare_cli_outputs.py")
        table, offset_table = tmp_path / "zones.csv", tmp_path / "zones-offset.csv"
        inputs.write_zonal_csv(table, 1)
        tool.write_offset_cells(table, offset_table, 1e4)
        printed = []
        for path in (table, offset_table):
            scenario = inputs.csv_t_scenario(1, path)
            scenario["data"]["normalization"] = "none"
            scenario["market"]["window"] = 4380
            scenario["reservations"] = {"uniform_u": 0.002}
            config = write_scenario(tmp_path, name=f"{path.stem}.json", **scenario)
            assert main(["clear", "--config", str(config), "--out", str(tmp_path / path.stem)]) == EXIT_OK
            printed.append(capsys.readouterr().out.splitlines()[0])
        assert printed[1] == printed[0]
        assert printed[1].endswith("payments 0.00323041, buyer net gain 0.570462")
