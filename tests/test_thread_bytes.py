"""CLI output bytes do not depend on the BLAS thread count.

Each run is a fresh ``python -m regmarket`` process with ``OPENBLAS_NUM_THREADS``
and ``OMP_NUM_THREADS`` both 1, then both 2, on the benchmark's ``paper-u``
seed-0 scenario and its ``csv-t`` seed-1 scenario and CSV, as
``bench/inputs.py`` writes them. Exit codes, both streams and every written
file must be identical.

This is the extent of the promise: these two scenarios (P = 91 at T = 8760,
and the zonal CSV's windows) at 1 and 2 threads on an OpenBLAS build. Larger
designs break it. With ``max_lag`` 12 or 24 (P = 181 or 361) at T = 8760,
``sweep-u`` writes different bytes at 1 and 2 threads, since LAPACK work on
a P x P matrix of that size changes its bits; at T = 30000 with ``max_lag``
24, ``clear`` differs too, though the normal equations and the baseline
keep their bits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_module

ROOT = Path(__file__).resolve().parents[1]
RUNS = [
    ("paper-u", "clear"),
    ("paper-u", "compare-methods"),
    ("paper-u", "sweep-u"),
    ("paper-u", "grid-2"),
    ("csv-t", "sweep-t"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``{name: (config path, seed)}`` for the two benchmark scenarios."""
    bench = load_module("bench_inputs", "bench", "inputs.py")
    directory = tmp_path_factory.mktemp("inputs")
    table = directory / "zones-1.csv"
    bench.write_zonal_csv(table, 1)
    bench.write_json(directory / "paper-u.json", bench.paper_u_scenario(0))
    bench.write_json(directory / "csv-t.json", bench.csv_t_scenario(1, table))
    return {"paper-u": (directory / "paper-u.json", 0), "csv-t": (directory / "csv-t.json", 1)}


def run_cli(work: Path, threads: int, command: str, config: Path, seed: int):
    """Exit code, stdout, stderr and ``{file: bytes}`` of one run in a fresh process under ``work``."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
    )
    out = Path("out")
    argv = [command, "--config", str(config), "--out", str(out), "--seed", str(seed)]
    work.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-m", "regmarket", *argv], cwd=work, env=env, capture_output=True)
    written = {str(path.relative_to(work)): path.read_bytes() for path in sorted((work / out).rglob("*")) if path.is_file()}
    return done.returncode, done.stdout, done.stderr, written


@pytest.mark.parametrize(("name", "command"), RUNS)
def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, inputs, name, command):
    config, seed = inputs[name]
    one = run_cli(tmp_path / "one", 1, command, config, seed)
    two = run_cli(tmp_path / "two", 2, command, config, seed)
    assert one[0] == 0, one[2].decode()
    assert one[:3] == two[:3]
    assert one[3].keys() == two[3].keys() and one[3]
    for path, data in one[3].items():
        assert data == two[3][path], path
