"""Run every regmarket command from two source trees and report where the outputs differ.

    python3 tools/compare_cli_outputs.py BASE_TREE HEAD_TREE

Each tree is a source checkout (its package under ``src/regmarket``). The
inputs are written once, through ``HEAD_TREE/bench/inputs.py``: the
benchmark's ``paper-u`` and ``small-many`` scenarios at seeds 0 and 3, its
``csv-t`` scenario and 3-year zonal CSV at seed 1, the full scenario
file shown in ``HEAD_TREE/README.md``, ``EDGE_SCENARIO`` below, a
generator edge case, and the ``csv-t`` CSV under ``MIDDLE_BUYER`` below.
Every command then runs on every
input, once per tree, in a fresh process with that tree's ``src/`` on the
path and the same relative output directory, so the printed paths match.
A command that rejects an input (``ingest`` on a synthetic scenario, say)
is compared like any other run.

For each run the exit code, standard output, standard error and the sha256
of every file it wrote are compared. Each difference is printed on its own
line, then a summary that counts the runs per exit code and gives each
tree's ``src/regmarket/*.py`` line total, as ``wc -l`` counts it; the exit
status is 1 if there is any difference, else 0.

No input makes a command exit 3 (non-convergence) or 4 (a viability
violation), so this comparison never sees those exits or their messages;
``tests/test_cli.py`` pins them instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

COMMANDS = ("simulate", "clear", "compare-methods", "sweep-u", "sweep-t", "grid-2", "ingest")
SEEDS = (0, 3)  # paper-u and small-many
CSV_SEED = 1

# The generator's edge: one seller, a negative AR coefficient and no
# cross-seller loading, so the buyer is a plain AR(1) of its own.
EDGE_SCENARIO = {
    "scenario_id": "one-seller-edge",
    "seed": 5,
    "data": {
        "type": "synthetic",
        "n_independent": 1,
        "ar_coefficients": [-0.7],
        "noise_std": [1.0],
        "cross_coefficients": [0.0],
    },
    "market": {"central_agent": "P1", "max_lag": 3, "window": 240},
    "sweeps": {"u_grid": [0.0, 0.05, 0.2], "t_grid": [120, 240]},
}

# The csv-t CSV with the buyer in a middle column and no support_agents, so
# the sellers are every other zone in column order, on short windows.
MIDDLE_BUYER = {
    "scenario_id": "csv-middle-buyer",
    "market": {"central_agent": "Z08", "max_lag": 3, "window": 500},
    "sweeps": {
        "u_grid": [0.0, 0.001, 0.01],
        "t_grid": [250, 500],
        "grid2": {"agent_a": "Z02", "agent_b": "Z15", "u_grid_a": [0.001, 0.01], "u_grid_b": [0.001, 0.01]},
    },
}


def write_inputs(head: Path, directory: Path) -> list:
    """Write every input under ``directory``; return ``(label, config, seed)`` per run."""
    sys.path.insert(0, str(head / "bench"))
    import inputs

    runs = []
    for name, make in (("paper-u", inputs.paper_u_scenario), ("small-many", inputs.small_many_scenario)):
        config = directory / f"{name}.json"
        inputs.write_json(config, make(SEEDS[0]))
        runs += [(f"{name}-{seed}", config, seed) for seed in SEEDS]
    table = directory / f"zones-{CSV_SEED}.csv"
    inputs.write_zonal_csv(table, CSV_SEED)
    config = directory / f"csv-t-{CSV_SEED}.json"
    inputs.write_json(config, inputs.csv_t_scenario(CSV_SEED, table))
    runs.append((f"csv-t-{CSV_SEED}", config, CSV_SEED))
    config = directory / "csv-middle-buyer.json"
    inputs.write_json(config, {**inputs.csv_t_scenario(CSV_SEED, table), **MIDDLE_BUYER})
    runs.append(("csv-middle-buyer", config, CSV_SEED))

    readme = (head / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("A full scenario file") :]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    config = directory / "readme.json"
    inputs.write_json(config, json.loads(block))
    runs.append(("readme", config, None))
    config = directory / "edge.json"
    inputs.write_json(config, EDGE_SCENARIO)
    runs.append(("edge", config, None))
    return runs


def run_tree(tree: Path, work: Path, runs) -> dict:
    """``(label, command) -> (exit code, stdout, stderr, {file: sha256})`` for one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    work.mkdir()
    results = {}
    for label, config, seed in runs:
        for command in COMMANDS:
            out = Path("out") / label / command
            argv = [command, "--config", str(config), "--out", str(out)]
            argv += ["--seed", str(seed)] if seed is not None else []
            argv += ["--write-clean"] if command == "ingest" else []
            done = subprocess.run(
                [sys.executable, "-m", "regmarket", *argv], cwd=work, env=env, capture_output=True
            )
            written = {
                str(path.relative_to(work / out)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted((work / out).rglob("*"))
                if path.is_file()
            }
            results[label, command] = (done.returncode, done.stdout, done.stderr, written)
    return results


def differences(base: dict, head: dict) -> list:
    """One line per differing exit code, stream or written file."""
    lines = []
    for (label, command), (code, stdout, stderr, written) in base.items():
        other_code, other_stdout, other_stderr, other_written = head[label, command]
        where = f"{label} {command}:"
        if code != other_code:
            lines.append(f"{where} exit code {code} != {other_code}")
        if stdout != other_stdout:
            lines.append(f"{where} stdout differs")
        if stderr != other_stderr:
            lines.append(f"{where} stderr differs")
        for name in sorted(written.keys() | other_written.keys()):
            if written.get(name) != other_written.get(name):
                lines.append(f"{where} {name} differs (sha256 {written.get(name)} != {other_written.get(name)})")
    return lines


def source_lines(tree: Path) -> int:
    """Newlines in the tree's ``src/regmarket/*.py``: the total ``wc -l`` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "regmarket").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree of the reference version")
    parser.add_argument("head", type=Path, help="source tree of the version under test")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        (scratch / "inputs").mkdir()
        runs = write_inputs(args.head, scratch / "inputs")
        base = run_tree(args.base, scratch / "base", runs)
        head = run_tree(args.head, scratch / "head", runs)
    lines = differences(base, head)
    for line in lines:
        print(line)
    codes = dict(sorted(Counter(code for code, *_ in head.values()).items()))
    print(f"{len(base)} runs compared ({len(runs)} inputs x {len(COMMANDS)} commands, exit codes {codes}): "
          f"{len(lines)} difference(s); src/regmarket/*.py lines {source_lines(args.base)} -> "
          f"{source_lines(args.head)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
