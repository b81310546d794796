"""Run every regmarket command from two source trees and report where the outputs differ.

    python3 tools/compare_cli_outputs.py BASE_TREE HEAD_TREE

Each tree is a source checkout (its package under ``src/regmarket``). The
inputs are written once, through ``HEAD_TREE/bench/inputs.py``: the
benchmark's ``paper-u`` and ``small-many`` scenarios at seeds 0 and 3, its
``csv-t`` scenario and 3-year zonal CSV at seed 1, the full scenario
file shown in ``HEAD_TREE/README.md``, that file again behind a UTF-8
byte-order mark, which a scenario reader must skip, ``EDGE_SCENARIO``
below, a generator edge case, the ``csv-t`` CSV under ``MIDDLE_BUYER`` below,
``ENTRIES_SCENARIO`` below, the one input whose reservations are explicit
``entries``, the ``csv-t`` CSV under ``SCHEMA_SCENARIO`` below, the one
input that sets ``data.schema`` and ``data.window_start``, and the
``csv-t`` scenario on a copy of its CSV with each ISO stamp rewritten as
its integer hour index (:func:`write_integer_stamps`), and on a copy with
``OFFSET`` added to every value cell (:func:`write_offset_cells`), read
without normalization, and the README file at a 120-hour window twice
more: with one feature priced twice in ``reservations.entries``, and with
prices whose lasso penalty overflows a float (:func:`rejected_prices`),
and once more as ``collinear``: its series, which ``HEAD_TREE``'s
``simulate`` writes over the longest ``t_grid`` window, read as a zonal CSV
with a zone P6 that repeats P2 plus ``COLLINEAR_NOISE`` times Gaussian noise
(:func:`write_collinear`), so every seller's design is near-singular.
Every command
then runs on every input, once per tree, in a fresh process with that
tree's ``src/`` on the path and the same relative output directory, so the
printed paths match.
A command that rejects an input (``ingest`` on a synthetic scenario, say)
is compared like any other run.

For each run the exit code, standard output, standard error and the bytes
of every file it wrote are compared. Each difference is printed on its own
line, then a summary that counts the runs per exit code and gives each
tree's ``src/regmarket/*.py`` line total, as ``wc -l`` counts it; the exit
status is 1 if there is any difference, else 0.

A written CSV file whose rows and cells line up, and whose non-numeric
cells are equal, differs in values only: its line gives the largest cell
difference divided by the largest magnitude in that cell's column. Standard
output that differs only in its numbers is sized the same way, each number
scaled by the larger of its two magnitudes. Every other difference is
structural and printed with both sha256 digests. The size is reported, never
forgiven: a value-only difference counts like any other.

Only ``collinear`` makes a command exit 3 (non-convergence): the solver
does not certify on its near-duplicate seller, so ``clear``,
``compare-methods``, ``sweep-u``, ``sweep-t`` and ``grid-2`` exit 3 on it,
and the comparison sees their messages. No input makes a command exit 4 (a
viability violation); ``tests/test_cli.py`` pins both exits.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import datetime
from pathlib import Path

COMMANDS = ("simulate", "clear", "compare-methods", "sweep-u", "sweep-t", "grid-2", "ingest")
SEEDS = (0, 3)  # paper-u and small-many
CSV_SEED = 1
OFFSET = 1e4  # csv-t-offset's location, thousands of times each zone's spread; it must not decide the clearing
COLLINEAR_NOISE = 1e-6  # collinear's P6 is P2 plus this times standard normal noise

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


# Explicit reservations.entries, listed out of feature order: P4 lag 3 is
# left out (free), the buyer is priced 0.0, P3 lag 2 at -0.0 and P5 lag 1 at
# 1e-9. The t_grid runs the schedule on two windows of one prepared market.
ENTRIES_SCENARIO = {
    "scenario_id": "explicit-entries",
    "seed": 2,
    "data": {"type": "synthetic"},
    "market": {"central_agent": "P1", "max_lag": 3, "window": 240},
    "reservations": {
        "entries": [
            ["P5", 3, 0.2], ["P3", 1, 0.05], ["P1", 2, 0.0], ["P2", 2, 0.1], ["P4", 1, 0.3],
            ["P3", 2, -0.0], ["P5", 1, 1e-9], ["P2", 1, 0.02], ["P4", 2, 0.01], ["P3", 3, 1.0],
            ["P2", 3, 0.1], ["P5", 2, 0.07],
        ]
    },
    "sweeps": {"t_grid": [120, 240]},
}

# The csv-t CSV read through SCHEMA, which renames two zones, keeps three
# names and drops the other ten, from data.window_start WINDOW_OFFSET hours
# after the file's first hour, with the sellers named in column order.
SCHEMA = {"Z01": "Z01", "Z02": "north", "Z05": "Z05", "Z09": "west", "Z14": "Z14"}
WINDOW_OFFSET = 100
SCHEMA_SCENARIO = {
    "scenario_id": "csv-schema-window",
    "market": {"central_agent": "Z01", "max_lag": 2, "window": 400},
    "sweeps": {
        "u_grid": [0.0, 0.001, 0.01],
        "t_grid": [200, 400],
        "grid2": {"agent_a": "north", "agent_b": "Z05", "u_grid_a": [0.001, 0.01], "u_grid_b": [0.001, 0.01]},
    },
}


def readme_scenario(tree: Path) -> dict:
    """The full scenario file shown in ``tree``'s README."""
    readme = (tree / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("A full scenario file") :]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))


def rejected_prices(readme: dict) -> dict:
    """The README scenario at window 120, once pricing P2 lag 1 twice and once at prices whose penalty overflows."""
    short = {**readme, "market": {**readme["market"], "window": 120}}
    return {
        "entries-twice": {**short, "reservations": {"entries": [["P2", 1, 0.1], ["P2", 1.0, 0.2]]}},
        "price-overflow": {
            **short,
            "reservations": {"uniform_u": 1e308},
            "sweeps": {**short["sweeps"], "u_grid": [0.0, 1e308]},
        },
    }


def write_collinear(head: Path, readme: dict, directory: Path) -> dict:
    """Write the ``collinear`` CSV under ``directory`` and return its scenario: ``readme`` reading it, every other zone a seller.

    ``head``'s ``simulate`` writes the README series over the longest ``t_grid`` window, and
    zone P6, P2 plus ``COLLINEAR_NOISE`` times seeded standard normal noise, is added to each row.
    """
    config = directory / "collinear-simulate.json"
    config.write_text(json.dumps({**readme, "market": {**readme["market"], "window": max(readme["sweeps"]["t_grid"])}}))
    env = dict(os.environ, PYTHONPATH=str(head.resolve() / "src"))
    out = directory / "collinear-series"
    subprocess.run([sys.executable, "-m", "regmarket", "simulate", "--config", str(config), "--out", str(out)],
                   env=env, capture_output=True, check=True)
    header, *rows = (out / "series.csv").read_text(encoding="utf-8").splitlines()
    p2, noise = header.split(",").index("P2"), random.Random(0)
    lines = [f"{header},P6"] + [f"{row},{float(row.split(',')[p2]) + COLLINEAR_NOISE * noise.gauss(0.0, 1.0)!r}" for row in rows]
    table = directory / "collinear.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    market = {key: value for key, value in readme["market"].items() if key != "support_agents"}
    return {**readme, "scenario_id": "collinear", "data": {"type": "csv", "path": str(table)}, "market": market}


def write_integer_stamps(source: Path, target: Path) -> None:
    """Copy the zonal CSV ``source`` to ``target`` with each ISO stamp as ``24 * ordinal + hour``."""
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for row in rows:
        stamp, cells = row.split(",", 1)
        when = datetime.fromisoformat(stamp)
        lines.append(f"{24 * when.toordinal() + when.hour},{cells}")
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_offset_cells(source: Path, target: Path, offset: float = OFFSET) -> None:
    """Copy the zonal CSV ``source`` to ``target`` with ``offset`` added to each nonempty value cell.

    Sums are written to 4 decimals, as the benchmark writes its cells, so each is the exact decimal sum.
    """
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for row in rows:
        stamp, *cells = row.split(",")
        lines.append(",".join([stamp, *(cell and f"{float(cell) + offset:.4f}" for cell in cells)]))
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    facts = inputs.write_zonal_csv(table, CSV_SEED)
    config = directory / f"csv-t-{CSV_SEED}.json"
    inputs.write_json(config, inputs.csv_t_scenario(CSV_SEED, table))
    runs.append((f"csv-t-{CSV_SEED}", config, CSV_SEED))
    config = directory / "csv-middle-buyer.json"
    inputs.write_json(config, {**inputs.csv_t_scenario(CSV_SEED, table), **MIDDLE_BUYER})
    runs.append(("csv-middle-buyer", config, CSV_SEED))
    scenario = inputs.csv_t_scenario(CSV_SEED, table)
    data = {**scenario["data"], "schema": SCHEMA, "window_start": facts["first_hour"] + WINDOW_OFFSET}
    config = directory / "csv-schema-window.json"
    inputs.write_json(config, {**scenario, **SCHEMA_SCENARIO, "data": data})
    runs.append(("csv-schema-window", config, CSV_SEED))
    hours_table = directory / f"zones-{CSV_SEED}-hours.csv"
    write_integer_stamps(table, hours_table)
    config = directory / f"csv-t-{CSV_SEED}-hours.json"
    inputs.write_json(config, inputs.csv_t_scenario(CSV_SEED, hours_table))
    runs.append((f"csv-t-{CSV_SEED}-hours", config, CSV_SEED))
    offset_table = directory / f"zones-{CSV_SEED}-offset.csv"
    write_offset_cells(table, offset_table)
    config = directory / "csv-t-offset.json"
    # Unnormalized: dividing each zone by its peak would shrink its spread along with its location.
    scenario = inputs.csv_t_scenario(CSV_SEED, offset_table)
    inputs.write_json(config, {**scenario, "data": {**scenario["data"], "normalization": "none"}})
    runs.append(("csv-t-offset", config, CSV_SEED))

    readme = readme_scenario(head)
    config = directory / "readme.json"
    inputs.write_json(config, readme)
    runs.append(("readme", config, None))
    marked = directory / "readme-bom.json"
    marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    runs.append(("readme-bom", marked, None))
    for label, scenario in rejected_prices(readme).items():
        config = directory / f"{label}.json"
        inputs.write_json(config, scenario)
        runs.append((label, config, None))
    config = directory / "collinear.json"
    inputs.write_json(config, write_collinear(head, readme, directory))
    runs.append(("collinear", config, None))
    config = directory / "edge.json"
    inputs.write_json(config, EDGE_SCENARIO)
    runs.append(("edge", config, None))
    config = directory / "entries.json"
    inputs.write_json(config, ENTRIES_SCENARIO)
    runs.append(("entries", config, None))
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
                str(path.relative_to(work / out)): path.read_bytes()
                for path in sorted((work / out).rglob("*"))
                if path.is_file()
            }
            results[label, command] = (done.returncode, done.stdout, done.stderr, written)
    return results


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _number(cell: str):
    """``cell`` as a finite float, or None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def value_difference(base: bytes, head: bytes, is_csv: bool):
    """How two outputs that differ only in their numbers differ, as a line ending; None if not so.

    A CSV is read as rows of cells, and a stream as one row: the text between
    its numbers, and the numbers. Each difference is divided by the largest
    magnitude in its column, over both outputs; the largest of these is
    returned with the column's name (a CSV's first-row cell, or the text
    before a number) and both terms of the ratio.
    """
    def rows(data):
        text = data.decode("utf-8", errors="replace")
        return list(csv.reader(io.StringIO(text, newline=""))) if is_csv else [NUMBER.split(text)]

    rows_base, rows_head = rows(base), rows(head)
    if len(rows_base) != len(rows_head) or any(len(a) != len(b) for a, b in zip(rows_base, rows_head)):
        return None
    scale, worst = {}, {}
    for row_base, row_head in zip(rows_base, rows_head):
        for column, (a, b) in enumerate(zip(row_base, row_head)):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return None
                continue
            scale[column] = max(scale.get(column, 0.0), abs(x), abs(y))
            worst[column] = max(worst.get(column, 0.0), abs(x - y))
    column = max((k for k in worst if worst[k] > 0.0), key=lambda k: worst[k] / scale[k], default=None)
    if column is None:
        return 0.0, "in values only (all equal as numbers)"
    name = rows_base[0][column] if is_csv else rows_base[0][column - 1].strip()
    size = worst[column] / scale[column]
    return size, (
        f"in values only (largest scaled difference {size:.2e}, in {name!r}: "
        f"{worst[column]:.2e} where the largest magnitude is {scale[column]:.2e})"
    )


def differences(base: dict, head: dict) -> tuple:
    """One line per differing exit code, stream or written file, and the value-only sizes."""
    lines, sizes = [], []

    def sized(where, what, a, b, is_csv):
        found = value_difference(a, b, is_csv)
        if found is None:
            return False
        sizes.append(found[0])
        lines.append(f"{where} {what} differs {found[1]}")
        return True

    for (label, command), (code, stdout, stderr, written) in base.items():
        other_code, other_stdout, other_stderr, other_written = head[label, command]
        where = f"{label} {command}:"
        if code != other_code:
            lines.append(f"{where} exit code {code} != {other_code}")
        if stdout != other_stdout and not sized(where, "stdout", stdout, other_stdout, False):
            lines.append(f"{where} stdout differs")
        if stderr != other_stderr:
            lines.append(f"{where} stderr differs")
        for name in sorted(written.keys() | other_written.keys()):
            mine, theirs = written.get(name), other_written.get(name)
            if mine == theirs or (
                mine is not None and theirs is not None and name.endswith(".csv") and sized(where, name, mine, theirs, True)
            ):
                continue
            digests = [None if data is None else hashlib.sha256(data).hexdigest() for data in (mine, theirs)]
            lines.append(f"{where} {name} differs (sha256 {digests[0]} != {digests[1]})")
    return lines, sizes


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
    lines, sizes = differences(base, head)
    for line in lines:
        print(line)
    codes = dict(sorted(Counter(code for code, *_ in head.values()).items()))
    print(f"{len(base)} runs compared ({len(runs)} inputs x {len(COMMANDS)} commands, exit codes {codes}): "
          f"{len(lines)} difference(s), {len(sizes)} in values only (largest scaled difference "
          f"{max(sizes, default=0.0):.2e}); src/regmarket/*.py lines {source_lines(args.base)} -> "
          f"{source_lines(args.head)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
