"""Show that the benchmark's output check rejects a table with one payment altered.

    python3 bench/selftest.py

Runs ``clear`` once on the small-many scenario, checks that the untouched
output passes, then changes one seller's payment in the written CSV and
checks that the output is rejected for that payment. Exits 0 when both hold.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys

import check
import run


def main() -> int:
    if run.source_missing():
        return 2
    package = run.import_package()
    workload = run.WORKLOADS["small-many"]
    seed = workload.pool[0]
    directory = run.WORK / "selftest"
    shutil.rmtree(directory, ignore_errors=True)

    def checker():
        return check.OutputChecker(
            workload.name,
            package.data_io.OUTCOME_COLUMNS,
            package.market.VIABILITY_TOLERANCE,
            check.load_reference(),
        )

    try:
        jobs, _, _ = run.write_inputs(workload, [seed], directory)
        job = next(j for j in jobs[seed] if j.command == "clear")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = package.cli.main(job.argv())
        problems, _ = checker().check(job.command, seed, code, stdout.getvalue(), job.out)
        if problems:
            print(f"FAIL: the untouched output was rejected: {problems}")
            return 1

        table = job.out / check.OUTCOME_TABLE["clear"]
        lines = table.read_text(encoding="utf-8").splitlines()
        columns = list(package.data_io.OUTCOME_COLUMNS)
        lag, column = columns.index("lag"), columns.index("payment")
        for number, line in enumerate(lines[2:], start=2):
            cells = line.split(",")
            if cells[lag] and float(cells[column]) > 0.0:
                cells[column] = repr(float(cells[column]) * 1.001)
                lines[number] = ",".join(cells)
                break
        else:
            print("FAIL: no seller was paid, so no payment could be altered")
            return 1
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems, _ = checker().check(job.command, seed, code, stdout.getvalue(), job.out)
        if not any("payment" in problem for problem in problems):
            print(f"FAIL: the altered payment was not caught (problems: {problems})")
            return 1
        print(f"ok: untouched output accepted; altered payment rejected ({problems[0]})")
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
