"""Every name the benchmark's tracer patches still exists where the tracer looks it up.

``bench/tracer.py`` wraps functions under the module attribute their callers
read (``market.build_lag_matrix``, ``cli.clear_market``, ...). A deletion in
the package that removes one would break the traced benchmark runs, so it
fails here too, as does a design that no longer gives the tracer's fit drain
what it reads.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import regmarket
import regmarket.cli  # noqa: F401  (the tracer patches names in every module)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = bench_module("tracer")
TARGETS = tracer.TARGETS


@pytest.mark.parametrize(("module", "attribute", "span"), TARGETS, ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_traced_name_is_the_function_its_span_names(module, attribute, span):
    patched = getattr(getattr(regmarket, module), attribute)
    home, name = span.split(".")
    assert patched is getattr(importlib.import_module(f"regmarket.{home}"), name)


def test_fit_drain_reads_the_design_the_package_builds(tmp_path):
    # The traced runs measure each lasso call's KKT residual and design size
    # from the design the market passed to the solver, after the command returns.
    inputs = bench_module("inputs")
    config = tmp_path / "small-many.json"
    inputs.write_json(config, inputs.small_many_scenario(0))
    traced = tracer.Tracer(regmarket)
    traced.install()
    try:
        for op, command in enumerate(("clear", "sweep-u", "sweep-t", "grid-2")):
            argv = [command, "--config", str(config), "--seed", "0", "--out", str(tmp_path / command)]
            assert traced.call_root(op, regmarket.cli.main, argv) == 0
    finally:
        traced.uninstall()
    assert not traced.failed
    assert len(traced.kkt) == len(traced.design_bytes) == 1 + 8 + 4 + 9
    assert max(traced.kkt) < 1e-12
