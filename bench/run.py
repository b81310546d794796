"""End-to-end benchmark of the regmarket CLI, with an optional per-layer trace.

    python3 bench/run.py --workload paper-u --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and writes only under ``.bench_work/``. Each operation is one
``regmarket.cli.main([...])`` call, made by a single client in this process
that waits for each call before the next (a closed loop). Every call's
outputs are checked. The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import inputs
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3  # set-up runs per process; setup_s is their median


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # one cycle, in order
    pool: tuple  # data seeds whose reference coefficients are recorded
    per_run: int  # how many pool seeds one run cycles through


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-u", ("clear", "sweep-u", "grid-2"), tuple(range(6)), 6),
        Workload("csv-t", ("ingest", "sweep-t"), tuple(range(4)), 1),
        Workload("small-many", ("clear", "sweep-u", "sweep-t", "grid-2"), tuple(range(8)), 8),
    )
}


@dataclass(frozen=True)
class Job:
    command: str
    seed: int
    config: Path
    out: Path

    def argv(self) -> list:
        return [self.command, "--config", str(self.config), "--seed", str(self.seed), "--out", str(self.out)]


def data_seeds(workload: Workload, seed: int) -> list:
    """The pool seeds, in cycle order, that workload seed ``seed`` selects."""
    return random.Random(seed).sample(workload.pool, workload.per_run)


def write_inputs(workload: Workload, seeds, directory: Path):
    """Write the workload's inputs; return its jobs per data seed, digests and ingest line."""
    directory.mkdir(parents=True)
    digests = {}
    ingest_line = None
    configs = {}
    if workload.name == "csv-t":
        for seed in seeds:
            table = directory / f"zones-{seed}.csv"
            expected = inputs.write_zonal_csv(table, seed)
            ingest_line = (
                f"zones {', '.join(expected['zones'])}; {expected['hours']} hours "
                f"({expected['first_hour']}..{expected['last_hour']}); dropped {expected['dropped']} rows"
            )
            configs[seed] = directory / f"csv-t-{seed}.json"
            inputs.write_json(configs[seed], inputs.csv_t_scenario(seed, table))
            digests[table.name] = inputs.digest(table)
    else:
        make = inputs.paper_u_scenario if workload.name == "paper-u" else inputs.small_many_scenario
        config = directory / f"{workload.name}.json"
        inputs.write_json(config, make(seeds[0]))
        configs = {seed: config for seed in seeds}
    for config in set(configs.values()):
        digests[config.name] = inputs.digest(config)
    jobs = {
        seed: [Job(command, seed, configs[seed], directory / "out" / f"{command}-{seed}") for command in workload.commands]
        for seed in seeds
    }
    return jobs, digests, ingest_line


def source_missing() -> bool:
    """Say so on standard error, and return True, when there is no ``src/regmarket``."""
    if (SRC / "regmarket" / "__init__.py").is_file():
        return False
    print(f"error: no regmarket package under {SRC}; run from a source checkout", file=sys.stderr)
    return True


def import_package():
    """Import regmarket afresh from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "regmarket" or n.startswith("regmarket.")]:
        del sys.modules[name]
    package = importlib.import_module("regmarket")
    importlib.import_module("regmarket.cli")
    if Path(package.__file__).resolve().parent != SRC / "regmarket":
        raise SystemExit(f"imported regmarket from {package.__file__}, not from {SRC}")
    return package


class Client:
    """Runs jobs one after another and checks each one's outputs."""

    def __init__(self, package, checker):
        self.main = package.cli.main
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = []  # (command, wall time) of every job run

    def run(self, job: Job, call=None) -> tuple[float, int]:
        """Run one job; return its wall time and the clearings it completed."""
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = call(self.main, job.argv()) if call else self.main(job.argv())
        except Exception:  # an escaped error is one failed operation, not the end of the run
            code = "exception: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        self.records.append((job.command, elapsed))
        problems, clearings = self.checker.check(job.command, job.seed, code, stdout.getvalue(), job.out)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{job.command} seed {job.seed}: {'; '.join(problems)} {stderr.getvalue().strip()}")
            clearings = 0
        return elapsed, clearings


def set_up(workload: Workload, seeds, directory: Path, reference: dict, output_digests: dict):
    """Import the package, write the inputs and warm up every command once."""
    start = time.perf_counter()
    package = import_package()
    jobs, input_digests, ingest_line = write_inputs(workload, seeds, directory)
    checker = check.OutputChecker(
        workload.name,
        package.data_io.OUTCOME_COLUMNS,
        package.market.VIABILITY_TOLERANCE,
        reference,
        ingest_line,
        output_digests,
    )
    client = Client(package, checker)
    # Warm up on the same pool seed whatever the workload seed, so that
    # set-up time does not depend on which draw a run happens to start with.
    for job in jobs[min(seeds)]:
        client.run(job)
    return time.perf_counter() - start, package, client, jobs, input_digests


def cycle_seeds(seeds, seconds: float):
    """Yield the data seed of each whole cycle to run until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        yield seeds[k % len(seeds)]
        k += 1


def run_cycles(client, jobs, seeds, seconds: float) -> list:
    """Wall time and clearings of each command cycle run in ``seconds``."""
    cycles = []
    for seed in cycle_seeds(seeds, seconds):
        runs = [client.run(job) for job in jobs[seed]]
        cycles.append((sum(t for t, _ in runs), sum(c for _, c in runs)))
    return cycles


def run_traced_pairs(client, jobs, seeds, seconds: float, tracer) -> dict:
    """Run cycles in pairs on one data seed, one untraced and one traced.

    The order within a pair alternates. Returns ``[wall, clearings, cycles]``
    for each side, keyed by whether it was traced.
    """
    sides = {False: [0.0, 0, 0], True: [0.0, 0, 0]}
    for k, seed in enumerate(cycle_seeds(seeds, seconds)):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                for job in jobs[seed]:
                    call = functools.partial(tracer.call_root, client.attempted) if traced else None
                    elapsed, clearings = client.run(job, call)
                    sides[traced][0] += elapsed
                    sides[traced][1] += clearings
            finally:
                if traced:
                    tracer.uninstall()
            sides[traced][2] += 1
    return sides


def percentile_tail(values):
    """Highest whole percentile with at least 10 samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)
    return p, sorted(values)[rank - 1]


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    facts["blas_threads"] = "default"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        for lib in libs:
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def command_stats(records) -> dict:
    """Median, sample count and tail of each command's wall time."""
    stats = {}
    for command in dict.fromkeys(c for c, _ in records):
        times = [t for c, t in records if c == command]
        entry = {"median_s": statistics.median(times), "n": len(times)}
        tail = percentile_tail(times)
        if tail:
            entry["tail_p"], entry["tail_s"] = tail
        stats[command.replace("-", "_") + "_s"] = entry
    return stats


def metric(value, unit):
    return {"value": value, "unit": unit}


def bench(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    reference = check.load_reference()
    seeds = data_seeds(workload, seed)
    setups = []
    attempted = failed = 0
    problems = []
    output_digests = {}  # shared, so each set-up's warm-up repeats the first one's outputs
    for repeat in range(SETUP_REPEATS):
        directory = run_dir / f"setup-{repeat}"
        elapsed, package, client, jobs, input_digests = set_up(workload, seeds, directory, reference, output_digests)
        setups.append(elapsed)
        if repeat < SETUP_REPEATS - 1:  # the last set-up's client goes on to the timed cycles
            attempted += client.attempted
            failed += client.failed
            problems += client.problems
            shutil.rmtree(directory)

    result = {
        "workload": workload.name,
        "seed": seed,
        "data_seeds": seeds,
        "scenario_ids": sorted({json.loads(j.config.read_text())["scenario_id"] for js in jobs.values() for j in js}),
        "input_digests": input_digests,
        "seconds": seconds,
        "machine": machine_facts(),
    }
    warm = len(client.records)
    if trace:
        tracer = Tracer(package)
        sides = run_traced_pairs(client, jobs, seeds, seconds, tracer)
        (plain_wall, _, plain_cycles), (traced_wall, traced_clearings, traced_cycles) = sides[False], sides[True]
        overhead = (traced_wall / traced_cycles) / (plain_wall / plain_cycles) - 1.0
        metrics = tracer.layer_metrics(traced_cycles, traced_clearings, overhead)
        trace_path = WORK / "traces" / f"{workload.name}-seed{seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["traced_cycles"] = traced_cycles
    else:
        cycles = run_cycles(client, jobs, seeds, seconds)
        wall = sum(t for t, _ in cycles)
        clearings = sum(c for _, c in cycles)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "clearings_per_s": metric(clearings / wall, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["cycle_times_s"] = [t for t, _ in cycles]
        result["commands"] = command_stats(client.records[warm:] + [("cycle", t) for t, _ in cycles])
        result["setup_runs_s"] = setups
    attempted += client.attempted
    failed += client.failed
    problems += client.problems
    result.update(attempted=attempted, failed=failed, failed_frac=failed / attempted, problems=problems[:20])
    result["metrics"] = metrics
    return result


def report(result: dict) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {result['workload']} seed {result['seed']} data seeds {result['data_seeds']}")
    print("machine " + ", ".join(f"{k}={v}" for k, v in result["machine"].items()))
    print("inputs " + ", ".join(f"{k}:{v}" for k, v in result["input_digests"].items()))
    for name, entry in result.get("commands", {}).items():
        tail = f", p{entry['tail_p']} {entry['tail_s']:.4f} s" if "tail_p" in entry else ""
        print(f"{name}: median {entry['median_s']:.4f} s (n={entry['n']}){tail}")
    print(f"failed_frac: {result['failed_frac']:.4f} ({result['failed']} of {result['attempted']})")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, entry in result["metrics"].items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if source_missing():
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(result)
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
