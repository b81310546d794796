"""Every name the benchmark's tracer patches still exists where the tracer looks it up.

``bench/tracer.py`` wraps functions under the module attribute their callers
read (``market.build_lag_matrix``, ``cli.clear_market``, ...). A deletion in
the package that removes one would break the traced benchmark runs, so it
fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import regmarket
import regmarket.cli  # noqa: F401  (the tracer patches names in every module)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = tracer_targets()


@pytest.mark.parametrize(("module", "attribute", "span"), TARGETS, ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_traced_name_is_the_function_its_span_names(module, attribute, span):
    patched = getattr(getattr(regmarket, module), attribute)
    home, name = span.split(".")
    assert patched is getattr(importlib.import_module(f"regmarket.{home}"), name)
