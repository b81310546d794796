"""Output checks applied to every benchmark invocation of the CLI.

Each check returns a list of problems; an empty list means the invocation
passed. The checks read only what the CLI wrote, plus the package's public
column list and viability tolerance, and the reference coefficients
recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Files each command writes into its --out directory.
OUTPUT_FILES = {
    "clear": ("clearing.csv",),
    "sweep-u": ("u_sweep.csv",),
    "sweep-t": ("t_sweep.csv", "t_sweep_per_step.csv"),
    "grid-2": ("u_grid2.csv",),
    "ingest": (),
}
# The first file a command writes is its outcome table, whose coefficients have references.
OUTCOME_TABLE = {command: files[0] for command, files in OUTPUT_FILES.items() if files}

# Certified solves (KKT residual <= 1e-8) of these well-conditioned designs
# agree to about 1e-7; a wrong solve misses by orders of magnitude more.
COEFFICIENT_TOLERANCE = 1e-5
PAYMENT_RTOL = 1e-12


def reference_key(workload: str, command: str, seed: int) -> str:
    return f"{workload}/{command}/{seed}"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["coefficients"]


def parse_outcome_table(text: str, columns) -> tuple[list, list]:
    """Rows of an outcome table as dicts, plus any problems with its layout."""
    lines = text.splitlines()
    if not lines or lines[0] != "# columns: " + ",".join(columns):
        return [], ["missing or wrong '# columns' comment line"]
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    header = next(reader, None)
    if tuple(header or ()) != tuple(columns):
        return [], [f"header {header} differs from OUTCOME_COLUMNS"]
    rows = [dict(zip(columns, row)) for row in reader]
    if any(len(row) != len(columns) for row in rows):
        return [], ["row with the wrong number of cells"]
    return rows, []


def check_outcome_rows(rows, viability_tolerance: float, reference) -> list:
    """Payments, buyer viability and coefficients of one outcome table."""
    problems = []
    coefficients = []
    point_payments = 0.0
    for number, row in enumerate(rows, start=1):
        try:
            if row["lag"]:
                coefficient = float(row["coefficient"])
                reservation = float(row["reservation"])
                payment = float(row["payment"])
                coefficients.append(coefficient)
                point_payments += payment
                expected = abs(reservation * coefficient)
                if not math.isclose(payment, expected, rel_tol=PAYMENT_RTOL, abs_tol=0.0):
                    problems.append(f"row {number}: payment {payment!r} != |u*b| = {expected!r}")
            else:
                payment = float(row["payment"])
                market = float(row["market_mse"])
                baseline = float(row["baseline_mse"])
                if market + payment > baseline + viability_tolerance:
                    problems.append(
                        f"row {number}: buyer not viable ({market!r} + {payment!r} > {baseline!r})"
                    )
                if not math.isclose(payment, point_payments, rel_tol=1e-9, abs_tol=1e-15):
                    problems.append(
                        f"row {number}: buyer pays {payment!r}, feature rows sum to {point_payments!r}"
                    )
                point_payments = 0.0
        except ValueError as err:
            problems.append(f"row {number}: unparseable cell ({err})")
    if reference is None:
        problems.append("no reference coefficients recorded for this input")
    elif len(reference) != len(coefficients):
        problems.append(f"{len(coefficients)} coefficients, reference has {len(reference)}")
    else:
        worst = max((abs(a - b) for a, b in zip(coefficients, reference)), default=0.0)
        if not worst <= COEFFICIENT_TOLERANCE:
            problems.append(f"coefficient off its reference by {worst:.3e}")
    return problems


def outcome_coefficients(text: str, columns) -> list:
    rows, problems = parse_outcome_table(text, columns)
    if problems:
        raise ValueError("; ".join(problems))
    return [float(row["coefficient"]) for row in rows if row["lag"]]


class OutputChecker:
    """Checks invocations of one workload and remembers each output's digest."""

    def __init__(self, workload: str, columns, viability_tolerance: float, reference: dict, ingest_line=None, digests=None):
        self.workload = workload
        self.columns = tuple(columns)
        self.viability_tolerance = viability_tolerance
        self.reference = reference
        self.ingest_line = ingest_line  # expected first stdout line of `ingest`
        # First output digest per (command, seed); may be shared between checkers.
        self.digests = {} if digests is None else digests

    def check(self, command: str, seed: int, exit_code, stdout: str, out_dir: Path) -> tuple[list, int]:
        """Problems with one invocation, and the clearings its outputs hold."""
        if exit_code != 0:
            return [f"exit code {exit_code}"], 0
        problems = []
        clearings = 0
        # Other commands print their output path, which differs between set-ups.
        digest = hashlib.sha256(stdout.encode("utf-8") if command == "ingest" else b"")
        for name in OUTPUT_FILES[command]:
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{name} not written")
                continue
            data = path.read_bytes()
            digest.update(data)
            if name != OUTCOME_TABLE.get(command):
                continue
            rows, layout = parse_outcome_table(data.decode("utf-8"), self.columns)
            problems += layout
            if not layout:
                clearings = sum(1 for row in rows if not row["lag"])
                reference = self.reference.get(reference_key(self.workload, command, seed))
                problems += [f"{name} {p}" for p in check_outcome_rows(rows, self.viability_tolerance, reference)]
        if command == "ingest" and stdout.splitlines()[:1] != [self.ingest_line]:
            problems.append(f"ingest reported {stdout.splitlines()[:1]}, expected {self.ingest_line!r}")
        key = (command, seed)
        first = self.digests.setdefault(key, digest.hexdigest())
        if first != digest.hexdigest():
            problems.append("output differs from the first run of the same command and seed")
        return problems, clearings
