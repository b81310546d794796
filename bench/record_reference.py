"""Record the reference coefficients the benchmark checks every output against.

    python3 bench/record_reference.py

Runs each workload's commands once on every seed of its pool and writes
``bench/reference.json``. Re-record only when a change is meant to alter
the cleared coefficients, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import check
import run


def main() -> int:
    if run.source_missing():
        return 2
    package = run.import_package()
    columns = package.data_io.OUTCOME_COLUMNS
    directory = run.WORK / "reference"
    shutil.rmtree(directory, ignore_errors=True)
    coefficients = {}
    try:
        for workload in run.WORKLOADS.values():
            for seed in workload.pool:
                jobs, _, _ = run.write_inputs(workload, [seed], directory / f"{workload.name}-{seed}")
                for job in jobs[seed]:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = package.cli.main(job.argv())
                    if code != 0:
                        print(f"error: {job.command} on {workload.name} seed {seed} exited {code}", file=sys.stderr)
                        return 1
                    table = check.OUTCOME_TABLE.get(job.command)
                    if table:
                        text = (job.out / table).read_text(encoding="utf-8")
                        values = check.outcome_coefficients(text, columns)
                        key = check.reference_key(workload.name, job.command, seed)
                        coefficients[key] = [round(v, 10) for v in values]
                print(f"recorded {workload.name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    payload = {"coefficients": coefficients}
    check.REFERENCE.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
